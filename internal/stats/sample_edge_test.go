package stats

import (
	"testing"
	"time"

	"mocha/internal/obs"
)

// The harness math in internal/bench depends on these obs.Sample edge
// cases.

func TestSampleEdgeEmpty(t *testing.T) {
	var s obs.Sample
	if s.N() != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 ||
		s.Stddev() != 0 || s.Median() != 0 || s.Percentile(95) != 0 {
		t.Fatal("empty sample must report zeros")
	}
}

func TestSampleEdgeSingle(t *testing.T) {
	var s obs.Sample
	s.Add(3 * time.Millisecond)
	want := 3 * time.Millisecond
	if s.Mean() != want || s.Min() != want || s.Max() != want ||
		s.Median() != want || s.Percentile(1) != want || s.Percentile(100) != want {
		t.Fatal("single-value sample stats must equal the value")
	}
	if s.Stddev() != 0 {
		t.Fatalf("single-value stddev = %v", s.Stddev())
	}
}

func TestSampleEdgePercentileBoundaries(t *testing.T) {
	var s obs.Sample
	for i := 1; i <= 10; i++ {
		s.Add(time.Duration(i) * time.Millisecond)
	}
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{0, 1 * time.Millisecond},    // rank floor
		{10, 1 * time.Millisecond},   // ceil(1.0) = 1
		{10.1, 2 * time.Millisecond}, // ceil(1.01) = 2
		{50, 5 * time.Millisecond},
		{90, 9 * time.Millisecond},
		{100, 10 * time.Millisecond},
		{150, 10 * time.Millisecond}, // rank ceiling
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); got != c.want {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
}
