// Command exact runs the tree-network optimality oracle: for a tree
// scenario it solves every (class, QoS) cell to provable optimality with
// the subtree DP (internal/exact) and asserts the oracle chain
//
//	LP lower bound <= exact optimum <= rounded certificate cost
//
// against the stack's own bounds. A violation means a bug somewhere in
// the LP, the rounding pass or the DP — the command exits non-zero and
// names the cell.
//
// Usage:
//
//	exact -scenario tree-kary-63                 # verify every cell, print a table
//	exact -scenario tree-random-100 -nodes 40    # rescaled ladder rung
//	exact -scenario tree-kary-63 -nodes 12 -brute  # also cross-check the DP against brute force
//	exact -scenario transit-stub-100             # non-tree: every cell reports unsupported
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"

	"wideplace/internal/cli"
	"wideplace/internal/core"
	"wideplace/internal/exact"
	"wideplace/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "exact:", err)
		os.Exit(1)
	}
}

// tolerance for the oracle chain: LP and certificate costs come out of
// floating-point solves, the exact optimum is integral.
const tol = 1e-9

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("exact", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenarioFlag = fs.String("scenario", "", "registered scenario name or spec file (required)")
		nodesFlag    = fs.Int("nodes", 0, "rescale the scenario to this node count (0 = spec size)")
		bruteFlag    = fs.Bool("brute", false, "also cross-check the DP against brute-force enumeration (small trees only)")
		verbose      = fs.Bool("v", false, "print per-cell solver progress to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scenarioFlag == "" {
		return errors.New("-scenario is required (try tree-kary-63 or tree-random-100)")
	}
	res, err := cli.ResolveScenario(*scenarioFlag, "exact", cli.ScenarioOptions{Nodes: *nodesFlag}, stderr)
	if err != nil {
		return err
	}

	tw := tabwriter.NewWriter(stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "class\tqos\tlp\texact\tcert\treplicas\tverdict")
	var failures []string
	for _, tqos := range res.System.Spec.QoSPoints {
		inst, err := res.System.Instance(tqos)
		if err != nil {
			return err
		}
		for _, class := range res.Classes {
			cell := fmt.Sprintf("%s q=%g", class.Name, tqos)
			sol, err := exact.SolveInstance(inst, class)
			if errors.Is(err, exact.ErrUnsupported) {
				if *verbose {
					fmt.Fprintf(stderr, "exact: %s: %v\n", cell, err)
				}
				fmt.Fprintf(tw, "%s\t%g\t-\t-\t-\t-\tunsupported\n", class.Name, tqos)
				continue
			}
			if err != nil {
				return fmt.Errorf("%s: %w", cell, err)
			}
			if *bruteFlag {
				brute, err := exact.SolveInstanceBrute(inst, class)
				if err != nil {
					return fmt.Errorf("%s: brute force: %w", cell, err)
				}
				if brute.Cost != sol.Cost {
					failures = append(failures, fmt.Sprintf("%s: DP optimum %g != brute optimum %g", cell, sol.Cost, brute.Cost))
				}
			}
			b, err := inst.LowerBound(class, core.BoundOptions{})
			if err != nil {
				return fmt.Errorf("%s: lower bound: %w", cell, err)
			}
			verdict := "ok"
			switch {
			case b.LPBound > sol.Cost+tol:
				verdict = "FAIL:lp-above-exact"
				failures = append(failures, fmt.Sprintf("%s: LP bound %.12g above exact optimum %.12g", cell, b.LPBound, sol.Cost))
			case sol.Cost > b.FeasibleCost+tol:
				verdict = "FAIL:exact-above-cert"
				failures = append(failures, fmt.Sprintf("%s: exact optimum %.12g above certificate %.12g", cell, sol.Cost, b.FeasibleCost))
			}
			if err := inst.VerifySolution(class, sol.Store); err != nil {
				verdict = "FAIL:witness"
				failures = append(failures, fmt.Sprintf("%s: DP witness infeasible: %v", cell, err))
			} else if got := inst.SolutionCost(class, sol.Store); math.Abs(got-sol.Cost) > tol {
				verdict = "FAIL:witness-cost"
				failures = append(failures, fmt.Sprintf("%s: witness MC-PERF cost %g != oracle cost %g", cell, got, sol.Cost))
			}
			if *verbose {
				fmt.Fprintf(stderr, "exact: %s: lp=%g exact=%g cert=%g iter=%d\n",
					cell, b.LPBound, sol.Cost, b.FeasibleCost, b.LPIterations)
			}
			fmt.Fprintf(tw, "%s\t%g\t%.6g\t%g\t%.6g\t%d\t%s\n",
				class.Name, tqos, b.LPBound, sol.Cost, b.FeasibleCost, sol.Replicas, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(stderr, "exact: FAIL: %s\n", f)
		}
		return fmt.Errorf("%d oracle violations on %s", len(failures), scenarioLabel(res, *nodesFlag))
	}
	return nil
}

// scenarioLabel names the verified instance, including any rescale.
func scenarioLabel(res *scenario.Result, nodes int) string {
	if nodes > 0 {
		return fmt.Sprintf("%s@%d", res.Spec.Name, nodes)
	}
	return res.Spec.Name
}
