// Package stats provides the small statistical and table-formatting
// helpers the benchmark harness uses to report measurements the way the
// paper's evaluation section does. The sample/histogram math itself lives
// in the observability plane (obs.Sample), shared with the runtime
// metrics registry; this package keeps the formatting helpers.
package stats

import (
	"fmt"
	"strings"
	"time"
)

// Millis renders a duration as milliseconds with sensible precision, the
// unit the paper reports everything in.
func Millis(d time.Duration) string {
	ms := float64(d) / float64(time.Millisecond)
	switch {
	case ms >= 100:
		return fmt.Sprintf("%.0f", ms)
	case ms >= 10:
		return fmt.Sprintf("%.1f", ms)
	default:
		return fmt.Sprintf("%.2f", ms)
	}
}

// Table formats aligned benchmark output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells are stringified with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		row = append(row, fmt.Sprintf("%v", c))
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			if i < len(widths)-1 {
				sb.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return sb.String()
}
