package lp

import (
	"math"
	"testing"
)

// TestPricingRulesAgree solves the same random instances under both
// pricing rules: the paths differ but the optimum must not.
func TestPricingRulesAgree(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		rng := newTestRand(seed + 100)
		m := randLP(rng, 5+rng.intn(25), 5+rng.intn(25))
		devex, derr := SolveModel(m, Options{Pricing: PricingDevex})
		dant, aerr := SolveModel(m, Options{Pricing: PricingDantzig})
		if (derr == nil) != (aerr == nil) {
			t.Fatalf("seed %d: classification mismatch: devex err=%v, dantzig err=%v", seed, derr, aerr)
		}
		if derr != nil {
			continue
		}
		scale := 1 + math.Abs(dant.Objective)
		if d := math.Abs(devex.Objective - dant.Objective); d > 1e-6*scale {
			t.Fatalf("seed %d: devex optimum %g != dantzig optimum %g", seed, devex.Objective, dant.Objective)
		}
		verifyOptimal(t, m, devex)
	}
}

// TestPricingRuleStamp checks that solves report the rule that actually
// ran, including the zero-value default resolving to devex.
func TestPricingRuleStamp(t *testing.T) {
	m := NewModel(Minimize)
	x := m.AddVar(0, 10, 1, "x")
	m.AddGE([]Coef{{x, 1}}, 2, "")
	def, err := SolveModel(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if def.Stats.PricingRule != "devex" {
		t.Errorf("default pricing rule = %q, want devex", def.Stats.PricingRule)
	}
	dant, err := SolveModel(m, Options{Pricing: PricingDantzig})
	if err != nil {
		t.Fatal(err)
	}
	if dant.Stats.PricingRule != "dantzig" {
		t.Errorf("pricing rule = %q, want dantzig", dant.Stats.PricingRule)
	}
}

// TestStatsPricingRuleMerge covers the aggregation semantics: agreeing
// solves keep the name, disagreeing ones degrade to "mixed".
func TestStatsPricingRuleMerge(t *testing.T) {
	var s Stats
	s.Add(Stats{PricingRule: "devex"})
	if s.PricingRule != "devex" {
		t.Errorf("after first add: %q", s.PricingRule)
	}
	s.Add(Stats{}) // empty contributions never change the name
	s.Add(Stats{PricingRule: "devex"})
	if s.PricingRule != "devex" {
		t.Errorf("after agreeing adds: %q", s.PricingRule)
	}
	s.Add(Stats{PricingRule: "dantzig"})
	if s.PricingRule != "mixed" {
		t.Errorf("after disagreeing add: %q", s.PricingRule)
	}
}
