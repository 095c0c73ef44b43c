package flow

import (
	"context"
	"errors"
	"testing"

	"repro/internal/warehouse"
)

func TestAdmitFeasibleInstance(t *testing.T) {
	w, s := ringSystem(t)
	wl := ringWorkload(t, w, 6, 3)
	cert, err := Admit(context.Background(), s, wl, 800, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cert != CertMaybeFeasible {
		t.Errorf("cert = %v, want maybe-feasible", cert)
	}
}

func TestAdmitRejectsOverloadedInstance(t *testing.T) {
	w, s := ringSystem(t)
	// Rate 300 units with qeff ~ a handful of periods through capacity-2
	// bottlenecks: the relaxation itself is infeasible.
	wl := ringWorkload(t, w, 300, 0)
	cert, err := Admit(context.Background(), s, wl, 120, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cert != CertInfeasible {
		t.Errorf("cert = %v, want infeasible", cert)
	}
	err = new(ContractModel).MustAdmit(context.Background(), s, wl, 120, Options{})
	var inf *InfeasibleError
	if !errors.As(err, &inf) || inf.Cert != CertInfeasible {
		t.Errorf("MustAdmit on an infeasible instance: %v, want an *InfeasibleError with the LP certificate", err)
	}
}

func TestAdmitShortHorizon(t *testing.T) {
	w, s := ringSystem(t)
	wl := ringWorkload(t, w, 1, 0)
	cert, err := Admit(context.Background(), s, wl, 3, Options{}) // below one cycle period
	if err != nil {
		t.Fatal(err)
	}
	if cert != CertInfeasible {
		t.Errorf("cert = %v, want infeasible for sub-period horizon", cert)
	}
	wl0 := ringWorkload(t, w, 0, 0)
	cert, err = Admit(context.Background(), s, wl0, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cert != CertMaybeFeasible {
		t.Errorf("cert = %v for empty workload", cert)
	}
}

// Soundness: whenever Admit says infeasible, every synthesis strategy must
// also fail.
func TestAdmitSoundAgainstSynthesizers(t *testing.T) {
	w, s := ringSystem(t)
	for _, units := range [][2]int{{300, 0}, {150, 150}, {10, 10}, {2, 0}} {
		wl, err := warehouse.NewWorkload(w, []int{units[0], units[1]})
		if err != nil {
			t.Fatal(err)
		}
		for _, T := range []int{120, 400, 800} {
			cert, err := Admit(context.Background(), s, wl, T, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if cert != CertInfeasible {
				continue
			}
			if _, err := SynthesizeSequential(context.Background(), s, wl, T, Options{}); err == nil {
				t.Errorf("units %v T %d: certified infeasible but sequential synthesis succeeded", units, T)
			}
			if _, err := SynthesizeContract(context.Background(), s, wl, T, Options{}); err == nil {
				t.Errorf("units %v T %d: certified infeasible but contract synthesis succeeded", units, T)
			}
		}
	}
}
