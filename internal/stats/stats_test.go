package stats

import (
	"strings"
	"testing"
	"time"

	"mocha/internal/obs"
)

func ms(v int) time.Duration { return time.Duration(v) * time.Millisecond }

func TestSampleStatistics(t *testing.T) {
	var s obs.Sample
	for _, v := range []int{10, 20, 30, 40, 50} {
		s.Add(ms(v))
	}
	if s.N() != 5 {
		t.Fatalf("N = %d", s.N())
	}
	if got := s.Mean(); got != ms(30) {
		t.Errorf("Mean = %v", got)
	}
	if got := s.Min(); got != ms(10) {
		t.Errorf("Min = %v", got)
	}
	if got := s.Max(); got != ms(50) {
		t.Errorf("Max = %v", got)
	}
	if got := s.Median(); got != ms(30) {
		t.Errorf("Median = %v", got)
	}
	if got := s.Percentile(100); got != ms(50) {
		t.Errorf("P100 = %v", got)
	}
	if got := s.Percentile(1); got != ms(10) {
		t.Errorf("P1 = %v", got)
	}
	// stddev of 10..50 step 10 is sqrt(250) ~ 15.81ms
	if got := s.Stddev(); got < ms(15) || got > ms(17) {
		t.Errorf("Stddev = %v", got)
	}
}

func TestEmptySample(t *testing.T) {
	var s obs.Sample
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Median() != 0 || s.Stddev() != 0 {
		t.Fatal("empty sample must report zeros")
	}
}

func TestMillis(t *testing.T) {
	tests := []struct {
		d    time.Duration
		want string
	}{
		{d: 5 * time.Millisecond, want: "5.00"},
		{d: 19 * time.Millisecond, want: "19.0"},
		{d: 150 * time.Millisecond, want: "150"},
		{d: 1500 * time.Microsecond, want: "1.50"},
	}
	for _, tt := range tests {
		if got := Millis(tt.d); got != tt.want {
			t.Errorf("Millis(%v) = %q, want %q", tt.d, got, tt.want)
		}
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("sites", "basic (ms)", "hybrid (ms)")
	tb.AddRow(1, "13.5", "20.1")
	tb.AddRow(6, "81.0", "120.9")
	out := tb.String()
	if !strings.Contains(out, "sites") || !strings.Contains(out, "81.0") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[1], "-----") {
		t.Fatalf("separator line: %q", lines[1])
	}
}
