package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteText renders a figure as aligned gnuplot-style data blocks: one
// block per panel, columns = series, rows = sweep points.
func WriteText(w io.Writer, f Figure) {
	fmt.Fprintf(w, "# Figure %s — %s\n", f.ID, f.Title)
	if f.Caption != "" {
		fmt.Fprintf(w, "# %s\n", f.Caption)
	}
	for _, p := range f.Panels {
		fmt.Fprintf(w, "\n## %s\n", p.Title)
		fmt.Fprintf(w, "%-10s", p.XLabel)
		for _, s := range p.Series {
			fmt.Fprintf(w, " %*s", colWidth(s.Label), s.Label)
		}
		fmt.Fprintln(w)
		if len(p.Series) == 0 {
			continue
		}
		for i := range p.Series[0].Points {
			fmt.Fprintf(w, "%-10d", p.Series[0].Points[i].X)
			for _, s := range p.Series {
				if i < len(s.Points) {
					fmt.Fprintf(w, " %*.*f", colWidth(s.Label), 4, s.Points[i].Seconds)
				}
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w)
}

func colWidth(label string) int {
	if len(label) < 10 {
		return 10
	}
	return len(label)
}

// WriteCSV renders a figure as long-form CSV with both timing and
// communication columns — the machine-readable record behind
// benchrunner -csv.
func WriteCSV(w io.Writer, f Figure) {
	fmt.Fprintln(w, "figure,panel,series,x,seconds,puts,gets,nic_amos,am_amos,local_amos,on_stmts,bulk_xfers,bulk_bytes,dcas_local,dcas_remote,agg_flushes,agg_ops,agg_bytes,cache_hits,cache_miss,cache_inval")
	for _, p := range f.Panels {
		for _, s := range p.Series {
			for _, pt := range s.Points {
				fmt.Fprintf(w, "%s,%q,%q,%d,%.6f,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
					f.ID, p.Title, s.Label, pt.X, pt.Seconds,
					pt.Comm.Puts, pt.Comm.Gets, pt.Comm.NICAMOs, pt.Comm.AMAMOs,
					pt.Comm.LocalAMOs, pt.Comm.OnStmts, pt.Comm.BulkXfers,
					pt.Comm.BulkBytes, pt.Comm.DCASLocal, pt.Comm.DCASRemote,
					pt.Comm.AggFlushes, pt.Comm.AggOps, pt.Comm.AggBytes,
					pt.Comm.CacheHits, pt.Comm.CacheMiss, pt.Comm.CacheInval)
			}
		}
	}
}

// WriteMatrixCSV renders the locale-pair heatmap record: one row per
// (point, src, dst) cell for every point that captured a matrix delta
// (the sharding ablation A7 and the replication ablation A8); points
// without a matrix are skipped. Fields are quoted per RFC 4180 (encoding/csv), so titles
// containing commas or quotes stay parseable. It returns the number of
// data rows written so the caller can warn when a -matrix request
// matched no figure.
func WriteMatrixCSV(w io.Writer, figures []Figure) int {
	cw := csv.NewWriter(w)
	defer cw.Flush()
	rows := 0
	for _, f := range figures {
		for _, p := range f.Panels {
			for _, s := range p.Series {
				for _, pt := range s.Points {
					if pt.Matrix == nil {
						continue
					}
					if rows == 0 {
						cw.Write([]string{"figure", "panel", "series", "x", "src", "dst", "events"})
					}
					for src := range pt.Matrix {
						for dst, n := range pt.Matrix[src] {
							cw.Write([]string{
								f.ID, p.Title, s.Label,
								strconv.Itoa(pt.X), strconv.Itoa(src), strconv.Itoa(dst),
								strconv.FormatInt(n, 10),
							})
							rows++
						}
					}
				}
			}
		}
	}
	return rows
}

// WriteCommText renders the communication-volume view of a figure:
// remote operations per point, the hardware-independent scaling
// evidence.
func WriteCommText(w io.Writer, f Figure) {
	fmt.Fprintf(w, "# Figure %s — %s (remote communication ops)\n", f.ID, f.Title)
	for _, p := range f.Panels {
		fmt.Fprintf(w, "\n## %s\n", p.Title)
		fmt.Fprintf(w, "%-10s", p.XLabel)
		for _, s := range p.Series {
			fmt.Fprintf(w, " %*s", colWidth(s.Label), s.Label)
		}
		fmt.Fprintln(w)
		if len(p.Series) == 0 {
			continue
		}
		for i := range p.Series[0].Points {
			fmt.Fprintf(w, "%-10d", p.Series[0].Points[i].X)
			for _, s := range p.Series {
				if i < len(s.Points) {
					fmt.Fprintf(w, " %*d", colWidth(s.Label), s.Points[i].Comm.Remote())
				}
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w)
}
