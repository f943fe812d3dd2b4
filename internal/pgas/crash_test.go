package pgas

import (
	"runtime"
	"testing"
	"time"

	"gopgas/internal/comm"
)

// Crash returns only once every execution the fault plan admitted on
// the dead locale has finished — on each route that admits one — so a
// recovery that follows it never races a handler still running there.
// An execution launched after the crash is refused and never runs.
func TestCrashWaitsOutAdmittedExecutions(t *testing.T) {
	for _, tc := range []struct {
		name   string
		launch func(c *Ctx, fn func(*Ctx))
	}{
		{"on", func(c *Ctx, fn func(*Ctx)) { c.On(1, fn) }},
		{"try-on", func(c *Ctx, fn func(*Ctx)) { c.TryOn(1, fn) }},
		{"async", func(c *Ctx, fn func(*Ctx)) { c.AsyncOn(1, fn) }},
		{"aggregated", func(c *Ctx, fn func(*Ctx)) {
			agg := c.Aggregator(1)
			agg.Call(fn)
			agg.Flush()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestSystem(t, 3, comm.BackendNone)
			entered, release := make(chan struct{}), make(chan struct{})
			go tc.launch(s.Ctx(0), func(*Ctx) {
				close(entered)
				<-release
			})
			<-entered
			crashed := make(chan struct{})
			go func() {
				if err := s.Crash(1); err != nil {
					t.Error(err)
				}
				close(crashed)
			}()
			for s.Alive(1) {
				runtime.Gosched()
			}
			select {
			case <-crashed:
				close(release)
				t.Fatal("Crash returned while an execution it admitted was still running on the dead locale")
			case <-time.After(20 * time.Millisecond):
			}
			close(release)
			<-crashed
			ran := false
			tc.launch(s.Ctx(2), func(*Ctx) { ran = true })
			s.Quiesce()
			if ran {
				t.Fatal("an execution launched after the crash ran on the dead locale")
			}
		})
	}
}
