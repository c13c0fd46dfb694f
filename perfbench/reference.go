package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// variants is how many distinct inputs controller-diurnal draws from: a
// seed selects variant seed mod variants, and reference.json stores every
// variant's bounds.
const variants = 4

func variant(seed int64) int {
	return int(((seed % variants) + variants) % variants)
}

// reference holds the LP bounds every reference-checked operation must
// reproduce within refTolerance.
type reference struct {
	Variants int `json:"variants"`
	// Sweep lists the sweep's bounds class-major, in the spec's class
	// order and QoS order; unattainable cells hold -1.
	Sweep []float64 `json:"sweep"`
	// Controller[v][j] lists the bound of every interval of system j of
	// variant v, stepped from a fresh controller.
	Controller [][][]float64 `json:"controller"`
}

//go:embed reference.json
var referenceJSON []byte

func loadReference() (*reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	if ref.Variants != variants || len(ref.Sweep) == 0 || len(ref.Controller) != variants {
		return nil, fmt.Errorf("reference.json holds %d variants, want %d: regenerate it", ref.Variants, variants)
	}
	return &ref, nil
}

// regenerateReference recomputes every bound with the same code paths the
// workloads time and writes reference.json to path.
func regenerateReference(path string, log io.Writer) error {
	ref := reference{Variants: variants}
	start := time.Now()
	pts, _, err := sweepOnce("")
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	for _, p := range pts {
		b := p.Bound
		if p.Infeasible {
			b = -1
		}
		ref.Sweep = append(ref.Sweep, b)
	}
	fmt.Fprintf(log, "sweep: %d cells in %.1fs\n", len(pts), time.Since(start).Seconds())
	for v := 0; v < variants; v++ {
		systems, err := ctlSystems(int64(v))
		if err != nil {
			return fmt.Errorf("controller variant %d: %w", v, err)
		}
		var cyc [][]float64
		for j, sys := range systems {
			ctl, err := sys.newController()
			if err != nil {
				return err
			}
			var bounds []float64
			for i := range sys.reads {
				st, err := ctl.Step(sys.reads[i])
				if err != nil {
					return fmt.Errorf("controller variant %d system %d interval %d: %w", v, j, i, err)
				}
				bounds = append(bounds, st.Bound)
			}
			cyc = append(cyc, bounds)
		}
		ref.Controller = append(ref.Controller, cyc)
		fmt.Fprintf(log, "controller variant %d: %d systems\n", v, len(systems))
	}
	var buf bytes.Buffer
	buf.WriteString("{\n  \"variants\": ")
	fmt.Fprintf(&buf, "%d,\n  \"sweep\": ", variants)
	writeFloats(&buf, ref.Sweep)
	buf.WriteString(",\n  \"controller\": [\n")
	for v, c := range ref.Controller {
		buf.WriteString("    [\n")
		for j, b := range c {
			buf.WriteString("      ")
			writeFloats(&buf, b)
			buf.WriteString(sep(j, len(c)))
		}
		buf.WriteString("    ]" + sep(v, len(ref.Controller)))
	}
	buf.WriteString("  ]\n}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func writeFloats(buf *bytes.Buffer, xs []float64) {
	buf.WriteByte('[')
	for i, x := range xs {
		if i > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(buf, "%.12g", x)
	}
	buf.WriteByte(']')
}

func sep(i, n int) string {
	if i < n-1 {
		return ",\n"
	}
	return "\n"
}
