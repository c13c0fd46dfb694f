package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunTreeRungRecordsOracleVerdict: a tree rung must carry the exact
// oracle's verdict both in the TSV footer and in the bench record, so a
// BENCH_scale.json data point is self-certifying.
func TestRunTreeRungRecordsOracleVerdict(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCH_scale.json")
	var out, errw strings.Builder
	err := run([]string{"-scenarios", "tree-kary-63", "-sizes", "10", "-out", dir, "-bench", bench}, &out, &errw)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errw.String())
	}

	tsv, err := os.ReadFile(filepath.Join(dir, "stress_tree-kary-63_n10.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range []string{"general", "tree-upwards"} {
		want := "# xcheck: engine=exact class=" + class
		if !strings.Contains(string(tsv), want) {
			t.Errorf("TSV footer lacks %q:\n%s", want, tsv)
		}
	}
	if strings.Contains(string(tsv), "FAIL") {
		t.Errorf("oracle verdicts must be ok on the builtin tree scenario:\n%s", tsv)
	}

	data, err := os.ReadFile(bench)
	if err != nil {
		t.Fatal(err)
	}
	var history []scaleRecord
	if err := json.Unmarshal(data, &history); err != nil {
		t.Fatalf("bench record: %v", err)
	}
	if len(history) != 1 || len(history[0].Scenarios) != 1 || len(history[0].Scenarios[0].Sizes) != 1 {
		t.Fatalf("unexpected bench shape: %s", data)
	}
	recs := history[0].Scenarios[0].Sizes[0].Exact
	if len(recs) != 2 {
		t.Fatalf("want 2 exact xcheck records, got %d: %s", len(recs), data)
	}
	for _, r := range recs {
		if r.Verdict != verdictOK {
			t.Errorf("%s qos=%g: verdict %q", r.Class, r.QoS, r.Verdict)
		}
		if !(r.LPBound <= r.Exact+1e-9 && r.Exact <= r.Certificate+1e-9) {
			t.Errorf("%s qos=%g: oracle chain violated: lp=%g exact=%g cert=%g",
				r.Class, r.QoS, r.LPBound, r.Exact, r.Certificate)
		}
	}
}

// TestRunXCheckExactOff: the oracle is skippable, and non-tree scenarios
// never produce exact records even with it on.
func TestRunXCheckExactOff(t *testing.T) {
	dir := t.TempDir()
	var out, errw strings.Builder
	err := run([]string{"-scenarios", "tree-kary-63", "-sizes", "10", "-xcheck-exact=false", "-out", dir, "-bench", ""}, &out, &errw)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errw.String())
	}
	tsv, err := os.ReadFile(filepath.Join(dir, "stress_tree-kary-63_n10.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(tsv), "engine=exact") {
		t.Errorf("-xcheck-exact=false still wrote oracle footers:\n%s", tsv)
	}
}

// TestRunStreamedRungByteIdentical: a WithNodes-rescaled GROUP rung
// compiled through the streamed path (no materialized trace) must write
// exactly the TSV the materialized path writes — streaming is a memory
// optimization for big-N rungs, never a different answer.
func TestRunStreamedRungByteIdentical(t *testing.T) {
	read := func(mode string) []byte {
		t.Helper()
		dir := t.TempDir()
		var out, errw strings.Builder
		err := run([]string{"-scenarios", "remote-office-clustered", "-sizes", "10",
			"-stream", mode, "-xcheck-exact=false", "-out", dir, "-bench", ""}, &out, &errw)
		if err != nil {
			t.Fatalf("run -stream %s: %v\nstderr: %s", mode, err, errw.String())
		}
		tsv, err := os.ReadFile(filepath.Join(dir, "stress_remote-office-clustered_n10.tsv"))
		if err != nil {
			t.Fatal(err)
		}
		return tsv
	}
	streamed, materialized := read("on"), read("off")
	if string(streamed) != string(materialized) {
		t.Fatalf("streamed rung TSV differs from materialized:\n--- off ---\n%s--- on ---\n%s",
			materialized, streamed)
	}
}

// TestRunTransitN20MatchesCommittedTSV pins the solver's pivot path at the
// command line: rerunning the N=20 transit-stub rung must reproduce the
// committed stress_transit-stub-100_n20.tsv byte for byte, "# solver:"
// footer included, so any change to the iteration, refactorization or
// pricing counters shows up here and not only in the bounds.
func TestRunTransitN20MatchesCommittedTSV(t *testing.T) {
	const name = "stress_transit-stub-100_n20.tsv"
	want, err := os.ReadFile(filepath.Join("..", "..", name))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var out, errw strings.Builder
	if err := run([]string{"-scenarios", "transit-stub-100", "-sizes", "20", "-out", dir, "-bench", ""}, &out, &errw); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errw.String())
	}
	got, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("rerun differs from the committed %s:\n--- committed ---\n%s--- rerun ---\n%s", name, want, got)
	}
}

// TestRunRejectsBadFlags: flag errors surface instead of os.Exit-ing.
func TestRunRejectsBadFlags(t *testing.T) {
	var out, errw strings.Builder
	if err := run([]string{"-sizes", "2"}, &out, &errw); err == nil {
		t.Error("ladder size 2 accepted")
	}
	if err := run([]string{"-no-such-flag"}, &out, &errw); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run([]string{"-stream", "maybe"}, &out, &errw); err == nil {
		t.Error("unknown -stream mode accepted")
	}
}
