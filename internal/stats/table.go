package stats

import (
	"fmt"
	"reflect"
	"strings"
)

// Table renders tabular experiment results as aligned ASCII or CSV. It
// is the single formatting path for every table and figure harness so
// the output of cmd/sweep, cmd/mcsim and the benchmarks all look
// alike.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row. Each cell is formatted with %v; float64 cells
// are formatted with three significant decimals.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case float32:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// CounterTable renders a slice of flat counter structs, one row each:
// one column per exported uint64 field, headed by the field name, in
// declaration order. A counter added to the struct shows with no edit.
func CounterTable[T any](title string, rows []T) *Table {
	t := NewTable(title)
	for _, f := range reflect.VisibleFields(reflect.TypeFor[T]()) {
		if f.IsExported() && f.Type.Kind() == reflect.Uint64 {
			t.Headers = append(t.Headers, f.Name)
		}
	}
	for _, r := range rows {
		cells := make([]any, len(t.Headers))
		for i, name := range t.Headers {
			cells[i] = reflect.ValueOf(r).FieldByName(name).Uint()
		}
		t.AddRow(cells...)
	}
	return t
}

// NumRows reports the number of data rows added so far.
func (t *Table) NumRows() int { return len(t.rows) }

// Rows returns the formatted data rows.
func (t *Table) Rows() [][]string { return t.rows }

// Render returns the table as aligned ASCII text.
func (t *Table) Render() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// CSV returns the table as comma-separated values with a header row.
// Cells containing a comma, quote, or line break are quoted per RFC
// 4180 (quotes doubled), so titles and labels can never corrupt the
// row structure.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(csvCell(c))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// csvCell escapes one CSV field per RFC 4180.
func csvCell(c string) string {
	if !strings.ContainsAny(c, ",\"\n\r") {
		return c
	}
	return `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
}
