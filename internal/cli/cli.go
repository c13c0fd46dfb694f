// Package cli holds small helpers shared by the command-line binaries:
// scenario resolution, signal-driven cancellation, the common progress
// writer and the opt-in pprof listener.
package cli

import (
	"context"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registers profiling handlers on DefaultServeMux
	"os"
	"os/signal"
	"syscall"

	"wideplace/internal/experiments"
	"wideplace/internal/scenario"
)

// ScenarioOptions adjusts a loaded scenario spec before compilation.
type ScenarioOptions struct {
	// QoS overrides the spec's QoS goal points (nil keeps the spec's).
	QoS []float64
	// Nodes rescales the spec to this node count with Spec.WithNodes
	// (0 keeps the spec's size).
	Nodes int
	// Requests overrides the workload's request volume exactly (0 keeps
	// the spec's). Applied after the Nodes rescale, so an explicit volume
	// wins over the proportional one.
	Requests int
	// Streaming forces the compile path (default StreamAuto: stream past
	// scenario.StreamingThreshold, materialize below it).
	Streaming scenario.StreamingMode
}

// ResolveScenario loads a scenario by reference (builtin name or spec
// file), applies the overrides and compiles it. Every binary resolves
// scenarios through here so the behavior — and the warning wording,
// "<tool>: scenario <name>: <warning>" — stays identical across tools.
// Warnings go to warnw; pass nil to discard them.
func ResolveScenario(ref, tool string, opts ScenarioOptions, warnw io.Writer) (*scenario.Result, error) {
	scn, err := scenario.Load(ref)
	if err != nil {
		return nil, err
	}
	if opts.QoS != nil {
		scn.QoS = opts.QoS
	}
	if opts.Nodes > 0 {
		scn = scn.WithNodes(opts.Nodes)
	}
	if opts.Requests < 0 {
		return nil, fmt.Errorf("request volume override must be positive, got %d", opts.Requests)
	}
	if opts.Requests > 0 {
		scn.Workload.Requests = opts.Requests
		if err := scn.Validate(); err != nil {
			return nil, err
		}
	}
	res, err := scenario.CompileWith(scn, scenario.CompileOptions{Streaming: opts.Streaming})
	if err != nil {
		return nil, err
	}
	if warnw != nil {
		name := res.Spec.Name
		if opts.Nodes > 0 {
			name = fmt.Sprintf("%s@%d", name, opts.Nodes)
		}
		for _, w := range res.Warnings {
			fmt.Fprintf(warnw, "%s: scenario %s: %s\n", tool, name, w)
		}
	}
	return res, nil
}

// SignalContext returns a context that is canceled on SIGINT or SIGTERM.
// The first signal cancels the context so in-flight work can drain (long
// solves observe it at the next simplex poll); a second signal kills the
// process through the default handler because stop() restores it only on
// return. Callers must call the returned stop function.
func SignalContext(parent context.Context) (context.Context, context.CancelFunc) {
	return signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
}

// Progress returns an experiments progress callback writing one line per
// event to w, or nil when verbose is false (discarding all events).
func Progress(verbose bool, w io.Writer) experiments.Progress {
	if !verbose {
		return nil
	}
	return func(format string, args ...interface{}) {
		fmt.Fprintf(w, format+"\n", args...)
	}
}

// ServePprof starts net/http/pprof on its own listener when addr is
// non-empty. Profiling stays opt-in and separate from any public address:
// the handlers live on http.DefaultServeMux, which none of the binaries
// otherwise serve. Errors are reported through logf; the listener runs
// until the process exits.
func ServePprof(addr string, logf func(format string, args ...interface{})) {
	if addr == "" {
		return
	}
	go func() {
		logf("pprof listening on %s", addr)
		if err := http.ListenAndServe(addr, nil); err != nil {
			logf("pprof server: %v", err)
		}
	}()
}
