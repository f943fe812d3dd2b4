package bench

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/skeleton.golden from this run")

// skeleton renders everything about a figure that is not a measurement:
// identity, text, panel and series order, the x value of every point and
// whether the point carries a matrix (an "m" suffix).
func skeleton(figs []Figure) string {
	var b strings.Builder
	for _, f := range figs {
		fmt.Fprintf(&b, "figure %s | %s\n  caption: %s\n", f.ID, f.Title, f.Caption)
		for _, p := range f.Panels {
			fmt.Fprintf(&b, "  panel %q x=%q\n", p.Title, p.XLabel)
			for _, s := range p.Series {
				fmt.Fprintf(&b, "    series %q:", s.Label)
				for _, pt := range s.Points {
					fmt.Fprintf(&b, " %d", pt.X)
					if pt.Matrix != nil {
						b.WriteByte('m')
					}
				}
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

// The golden was produced by the hand-written figure functions that
// preceded the measure/sweep harness: a rewrite of the harness, or a new
// arm, must leave every other figure's skeleton as it was.
func TestFigureSkeletonsGolden(t *testing.T) {
	cfg := tinyConfig()
	figs := append([]Figure{Figure3(cfg), Figure4(cfg), Figure5(cfg), Figure6(cfg), Figure7(cfg)}, Ablations(cfg)...)
	got := skeleton(figs)
	const path = "testdata/skeleton.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i, g := range gotLines {
		if i >= len(wantLines) || g != wantLines[i] {
			w := "<end of golden>"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Fatalf("%s line %d differs (regenerate with -update only if the change is intended)\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
	if len(gotLines) < len(wantLines) {
		t.Fatalf("%s has %d lines, this run produced %d", path, len(wantLines), len(gotLines))
	}
}
