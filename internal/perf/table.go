package perf

import (
	"encoding/json"
	"fmt"
	"strings"
)

// A Table is a simple aligned-text table used by the experiment
// runners to print paper-style tables.
type Table struct {
	Title  string
	header []string
	rows   [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, header: header}
}

// AddRow appends a row; cells beyond the header width are dropped and
// missing cells are left blank.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// Header returns a copy of the column headers.
func (t *Table) Header() []string {
	return append([]string(nil), t.header...)
}

// Rows returns a copy of the data rows.
func (t *Table) Rows() [][]string {
	out := make([][]string, len(t.rows))
	for i, row := range t.rows {
		out[i] = append([]string(nil), row...)
	}
	return out
}

// MarshalJSON renders the table as {title, header, rows} so reports
// are machine-readable (the sslanatomy -json mode).
func (t *Table) MarshalJSON() ([]byte, error) {
	rows := t.rows
	if rows == nil {
		rows = [][]string{}
	}
	return json.Marshal(struct {
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
	}{Title: t.Title, Header: t.header, Rows: rows})
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&sb, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.header)
	total := 0
	for _, w := range widths {
		total += w
	}
	sb.WriteString(strings.Repeat("-", total+2*(len(widths)-1)))
	sb.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return sb.String()
}
