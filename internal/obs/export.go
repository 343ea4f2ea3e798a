package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Snapshot is a point-in-time copy of every instrument, safe to inspect,
// serialize, and diff while the registry keeps counting.
type Snapshot struct {
	// Tick is the shared clock's position when the snapshot was taken
	// (0 without a clock), cross-referenceable against history events.
	Tick uint64 `json:"tick"`
	// Counters maps exported counter names to values.
	Counters map[string]int64 `json:"counters"`
	// Gauges maps exported gauge names to values.
	Gauges map[string]int64 `json:"gauges"`
	// ShardDepths maps sync shard index (as text) to queued requests;
	// only nonzero shards appear.
	ShardDepths map[string]int64 `json:"shard_depths,omitempty"`
	// StandbyRTT maps manager site (as text) to the probe round trip, in
	// microseconds, to the standby it chose; only measured choices appear.
	StandbyRTT map[string]int64 `json:"standby_rtt_us,omitempty"`
	// Hists maps exported histogram names to their state.
	Hists map[string]HistSnapshot `json:"hists"`
	// Spans carries the most recent completed operation spans.
	Spans []SpanRecord `json:"spans,omitempty"`
}

// Snapshot copies every instrument. Nil-safe: a nil registry yields the
// zero Snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := Snapshot{
		Tick:     r.now(),
		Counters: make(map[string]int64, int(numCounters)),
		Gauges:   make(map[string]int64, int(numGauges)),
		Hists:    make(map[string]HistSnapshot, int(numHists)),
	}
	for c := Counter(0); c < numCounters; c++ {
		s.Counters[c.Name()] = r.counters[c].Load()
	}
	for g := Gauge(0); g < numGauges; g++ {
		s.Gauges[g.Name()] = r.gauges[g].Load()
	}
	for i := range r.shardDepths {
		if v := r.shardDepths[i].Load(); v != 0 {
			if s.ShardDepths == nil {
				s.ShardDepths = make(map[string]int64)
			}
			s.ShardDepths[strconv.Itoa(i)] = v
		}
	}
	for i := range r.standbyRTT {
		if v := r.standbyRTT[i].Load(); v != 0 {
			if s.StandbyRTT == nil {
				s.StandbyRTT = make(map[string]int64)
			}
			s.StandbyRTT[strconv.Itoa(i)] = v / 1e3
		}
	}
	for h := HistID(0); h < numHists; h++ {
		s.Hists[h.Name()] = r.hists[h].snapshot()
	}
	s.Spans = r.Spans()
	return s
}

// WriteJSON emits the snapshot as one JSON object.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WritePrometheus emits the snapshot in the Prometheus text exposition
// format: counters and gauges as single series, histograms as cumulative
// _bucket/_sum/_count series, shard depths and standby round trips as
// labeled gauges.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	for _, name := range sortedKeys(s.Counters) {
		p("# TYPE %s counter\n%s %d\n", name, name, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		p("# TYPE %s gauge\n%s %d\n", name, name, s.Gauges[name])
	}
	if len(s.ShardDepths) > 0 {
		p("# TYPE mocha_sync_shard_queue_depth gauge\n")
		for _, shard := range sortedKeys(s.ShardDepths) {
			p("mocha_sync_shard_queue_depth{shard=%q} %d\n", shard, s.ShardDepths[shard])
		}
	}
	if len(s.StandbyRTT) > 0 {
		p("# TYPE mocha_standby_rtt_seconds gauge\n")
		for _, home := range sortedKeys(s.StandbyRTT) {
			p("mocha_standby_rtt_seconds{home=%q} %g\n", home, float64(s.StandbyRTT[home])/1e6)
		}
	}
	histNames := make([]string, 0, len(s.Hists))
	for name := range s.Hists {
		histNames = append(histNames, name)
	}
	sort.Strings(histNames)
	for _, name := range histNames {
		h := s.Hists[name]
		p("# TYPE %s histogram\n", name)
		var cum int64
		for i, bound := range BucketBounds {
			if len(h.Buckets) > i {
				cum += h.Buckets[i]
			}
			p("%s_bucket{le=\"%g\"} %d\n", name, bound.Seconds(), cum)
		}
		p("%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
		p("%s_sum %g\n", name, h.Sum.Seconds())
		p("%s_count %d\n", name, h.Count)
	}
	return err
}

// sortedKeys returns a map's keys in sorted order for stable output.
func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
