package dgs

import (
	"context"
	"testing"
	"time"
)

// tiny shrinks a run so facade tests stay fast.
func tiny() Options {
	return Options{
		Days:       1,
		Satellites: 8,
		Stations:   20,
		ClearSky:   true,
		Step:       2 * time.Minute,
	}
}

func TestSystemString(t *testing.T) {
	if SystemBaseline.String() != "Baseline" || SystemDGS.String() != "DGS" ||
		SystemDGS25.String() != "DGS(25%)" {
		t.Fatal("system names wrong")
	}
	if System(9).String() == "" {
		t.Fatal("unknown system must still print")
	}
}

func TestConfigSystems(t *testing.T) {
	for _, sys := range []System{SystemBaseline, SystemDGS, SystemDGS25} {
		cfg, err := Config(sys, tiny())
		if err != nil {
			t.Fatalf("%v: %v", sys, err)
		}
		if len(cfg.TLEs) != 8 {
			t.Fatalf("%v: %d satellites", sys, len(cfg.TLEs))
		}
		switch sys {
		case SystemBaseline:
			if cfg.Hybrid || len(cfg.Stations) != 5 {
				t.Fatalf("baseline config wrong: hybrid=%v stations=%d", cfg.Hybrid, len(cfg.Stations))
			}
		case SystemDGS:
			if !cfg.Hybrid || len(cfg.Stations) != 20 {
				t.Fatalf("dgs config wrong: hybrid=%v stations=%d", cfg.Hybrid, len(cfg.Stations))
			}
		case SystemDGS25:
			if !cfg.Hybrid || len(cfg.Stations) != 5 {
				t.Fatalf("dgs25 config wrong: hybrid=%v stations=%d", cfg.Hybrid, len(cfg.Stations))
			}
		}
	}
	if _, err := Config(System(42), tiny()); err == nil {
		t.Fatal("unknown system accepted")
	}
}

func TestConfigValueAndMatcherValidation(t *testing.T) {
	opt := tiny()
	opt.Value = "bogus"
	if _, err := Config(SystemDGS, opt); err == nil {
		t.Fatal("bogus value function accepted")
	}
	opt = tiny()
	opt.Matcher = "bogus"
	if _, err := Config(SystemDGS, opt); err == nil {
		t.Fatal("bogus matcher accepted")
	}
	for _, v := range []ValueName{ValueLatency, ValueThroughput} {
		opt = tiny()
		opt.Value = v
		if _, err := Config(SystemDGS, opt); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
	}
	for _, m := range []MatcherName{MatchStable, MatchOptimal} {
		opt = tiny()
		opt.Matcher = m
		if _, err := Config(SystemDGS, opt); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
	}
}

func TestRunTinyDGS(t *testing.T) {
	res, err := Run(context.Background(), SystemDGS, tiny())
	if err != nil {
		t.Fatal(err)
	}
	if res.GeneratedGB <= 0 || res.DeliveredGB <= 0 {
		t.Fatalf("generated %.1f delivered %.1f", res.GeneratedGB, res.DeliveredGB)
	}
	if res.BacklogGB.N() != 8 {
		t.Fatalf("backlog samples %d, want one per satellite", res.BacklogGB.N())
	}
}

func TestPopulationBeams(t *testing.T) {
	opt := tiny()
	opt.Beams = 3
	_, net := Population(opt)
	for _, gs := range net {
		if gs.Capacity() != 3 {
			t.Fatalf("beams not applied: %d", gs.Capacity())
		}
	}
}
