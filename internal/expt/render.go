package expt

import (
	"fmt"
	"io"
	"strings"
)

// WriteTable renders rows as an aligned plain-text table.
func WriteTable(w io.Writer, headers []string, rows [][]string) error {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len([]rune(h))
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len([]rune(cell)) > widths[i] {
				widths[i] = len([]rune(cell))
			}
		}
	}
	writeRow := func(cells []string) error {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if pad := widths[i] - len([]rune(cell)); pad > 0 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		return err
	}
	if err := writeRow(headers); err != nil {
		return err
	}
	var rule []string
	for _, wd := range widths {
		rule = append(rule, strings.Repeat("-", wd))
	}
	if err := writeRow(rule); err != nil {
		return err
	}
	for _, row := range rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV renders rows as minimal CSV (values contain no commas or
// quotes in this package's outputs).
func WriteCSV(w io.Writer, headers []string, rows [][]string) error {
	if _, err := fmt.Fprintln(w, strings.Join(headers, ",")); err != nil {
		return err
	}
	for _, row := range rows {
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// FMSRows converts an FMS sweep into table rows (one per n′_HI).
func FMSRows(r FMSResult) ([]string, [][]string) {
	headers := []string{"n'_HI", "UMC", "schedulable", "log10 pfh(LO)", "safe"}
	var rows [][]string
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.NPrime),
			fmt.Sprintf("%.4f", p.UMC),
			fmt.Sprintf("%v", p.Schedulable),
			fmt.Sprintf("%.2f", p.Log10PFHLO),
			fmt.Sprintf("%v", p.Safe),
		})
	}
	return headers, rows
}

// Fig3Rows converts a Fig. 3 panel into table rows (one per utilization,
// with baseline/adapted columns per failure probability).
func Fig3Rows(r Fig3Result) ([]string, [][]string) {
	headers := []string{"U"}
	for _, c := range r.Curves {
		headers = append(headers,
			fmt.Sprintf("base(f=%.0e)", c.FailProb),
			fmt.Sprintf("adapt(f=%.0e)", c.FailProb))
	}
	var rows [][]string
	for ui, u := range r.Config.Utils {
		row := []string{fmt.Sprintf("%.2f", u)}
		for _, c := range r.Curves {
			row = append(row,
				fmt.Sprintf("%.3f", c.Baseline[ui]),
				fmt.Sprintf("%.3f", c.Adapted[ui]))
		}
		rows = append(rows, row)
	}
	return headers, rows
}
