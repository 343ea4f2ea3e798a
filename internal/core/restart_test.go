package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"mocha/internal/obs"
	"mocha/internal/wire"
)

// TestRestartRejoin kills a worker site that owns the latest version of
// every lock, reboots it at the same address on the same store directory,
// and re-acquires every lock from it. With the paper's in-memory store the
// site comes back empty and refetches each lock; with the durable store it
// replays its log, re-joins at the persisted versions and bytes, and moves
// no replica data. Under a memory cap below the working set the durable
// store evicts and refaults on the way and recovers just the same. Fencing
// tokens strictly increase per lock across the kill, and the monitor and
// checker pass the whole history.
func TestRestartRejoin(t *testing.T) {
	const (
		sites   = 3
		victim  = wire.SiteID(2)
		payload = 1024 // int32s: a 4 KiB replica per lock
	)
	locks := []wire.LockID{201, 202, 203, 204}
	for _, c := range []struct {
		name     string
		durable  bool
		memLimit int // bytes; 0 = no cap
	}{
		{name: "in-memory"},
		{name: "durable", durable: true},
		{name: "durable-capped", durable: true, memLimit: 10 << 10},
	} {
		t.Run(c.name, func(t *testing.T) {
			opts := defaultOpts()
			opts.Metrics = obs.NewRegistry()
			// The survivors keep their sequence numbering toward the reborn
			// site, whose fresh receiver skips the gap after this long.
			opts.mnetCfg.GapTimeout = 100 * time.Millisecond
			if c.durable {
				opts.storeDirs = map[wire.SiteID]string{victim: t.TempDir()}
				opts.StoreMemLimit = c.memLimit
			}
			tc := newTestCluster(t, sites, opts)
			ctx := tctx(t)
			name := func(i int) string { return fmt.Sprintf("restart-%d", i) }

			creator := tc.node(wire.HomeSite).NewHandle("creator")
			for i, lock := range locks {
				mustCreate(t, creator, lock, name(i), make([]int32, payload), sites)
			}
			settle()

			// The worker writes every lock and pushes it to every sharer, so
			// the latest versions live at the victim and, for the in-memory
			// restart to refetch, at the survivors too.
			worker := tc.node(victim).NewHandle("worker")
			store := tc.node(victim).Store()
			for i, lock := range locks {
				rl, r := mustAttach(t, worker, lock, name(i))
				rl.SetUpdateReplicas(sites)
				if err := rl.Lock(ctx); err != nil {
					t.Fatal(err)
				}
				if len(r.Content().IntsData()) != payload {
					t.Fatalf("lock %d granted at v%d without the creator's content", lock, rl.Version())
				}
				r.Content().IntsData()[0] = int32(i + 1)
				if err := rl.Unlock(ctx); err != nil {
					t.Fatal(err)
				}
				// Only committed records are evictable: let the release's
				// acknowledgement commit this one before writing the next.
				if !eventually(t, func() bool {
					rec, ok, err := store.Get(lock)
					return err == nil && ok && !rec.Dirty && rec.Version == rl.Version()
				}) {
					t.Fatalf("lock %d v%d never committed at the worker's store", lock, rl.Version())
				}
			}
			type persisted struct {
				version uint64
				data    []byte
			}
			pre := make(map[wire.LockID]persisted, len(locks))
			for _, lock := range locks {
				rec, _, err := store.Get(lock)
				if err != nil {
					t.Fatal(err)
				}
				pre[lock] = persisted{rec.Version, append([]byte(nil), rec.Replicas[0].Data...)}
			}
			if c.memLimit > 0 {
				if st := store.Stats(); st.Evictions == 0 || st.Refaults == 0 {
					t.Fatalf("a %d B cap over a %d B working set: %d evictions, %d refaults, want both > 0",
						c.memLimit, 4*payload*len(locks), st.Evictions, st.Refaults)
				}
			}

			transfers := func() int64 {
				return opts.Metrics.CounterValue(obs.CTransfersFull) + opts.Metrics.CounterValue(obs.CTransfersDelta)
			}
			cut, transfersBefore := tc.rec.Len(), transfers()
			tc.kill(victim)
			reborn := tc.restart(t, victim)

			// The in-memory site recovers nothing and refetches every lock; the
			// durable one recovers every record and refetches none.
			refetch := len(locks)
			if c.durable {
				refetch = 0
			}
			if got := reborn.Store().Stats().Recovered; got != len(locks)-refetch {
				t.Fatalf("restart recovered %d records, want %d", got, len(locks)-refetch)
			}
			for lock, p := range pre {
				if rec, ok, err := reborn.Store().Get(lock); c.durable && (err != nil || !ok || rec.Version != p.version || !bytes.Equal(rec.Replicas[0].Data, p.data)) {
					t.Fatalf("lock %d recovered at v%d (ok=%v err=%v), want the persisted v%d and bytes", lock, rec.Version, ok, err, p.version)
				}
			}

			// The rebooted application re-attaches and reads every lock: the
			// shared acquire moves data only if the site's copy is stale.
			reader := reborn.NewHandle("reader")
			for i, lock := range locks {
				rl, r := mustAttach(t, reader, lock, name(i))
				settle()
				if err := rl.LockShared(ctx); err != nil {
					t.Fatalf("re-acquire lock %d after the restart: %v", lock, err)
				}
				if got := r.Content().IntsData(); len(got) == 0 || got[0] != int32(i+1) || rl.Version() != pre[lock].version {
					t.Fatalf("lock %d read %v at v%d after the restart, want %d at v%d", lock, got[:min(len(got), 1)], rl.Version(), i+1, pre[lock].version)
				}
				if err := rl.Unlock(ctx); err != nil {
					t.Fatal(err)
				}
			}

			// A sender tallies a transfer once its ack is back, which can trail
			// the read the data satisfied.
			eventually(t, func() bool { return transfers()-transfersBefore >= int64(refetch) })
			events := tc.rec.Events()
			refetches := 0
			for _, ev := range events[cut:] {
				if ev.Kind == wire.HistGrant && ev.Site == victim && !ev.Revised && ev.Flag == wire.NeedNewVersion {
					refetches++
				}
			}
			if moved := transfers() - transfersBefore; refetches != refetch || moved < int64(refetch) || c.durable && moved != 0 {
				t.Errorf("after the restart: %d refetch grants, %d transfers; want %d of each", refetches, moved, refetch)
			}

			fence := make(map[wire.LockID]uint64)
			for _, ev := range events {
				if ev.Kind != wire.HistGrant || ev.Revised || ev.AuxVersion == 0 {
					continue
				}
				if ev.AuxVersion <= fence[ev.Lock] {
					t.Errorf("lock %d: fresh grant fenced %d after %d (%s)", ev.Lock, ev.AuxVersion, fence[ev.Lock], ev)
				}
				fence[ev.Lock] = ev.AuxVersion
			}
		})
	}
}
