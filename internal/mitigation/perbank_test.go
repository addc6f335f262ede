package mitigation

import (
	"testing"

	"pracsim/internal/ticks"
)

func TestPerBankRotation(t *testing.T) {
	window := ticks.FromUS(1.28)
	p, err := NewTPRACPerBank(window, 4)
	if err != nil {
		t.Fatal(err)
	}
	step := window / 4
	var order []int
	for i := 1; i <= 8; i++ {
		order = p.DuePerBank(order, step*ticks.T(i))
	}
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if p.Issued() != 8 {
		t.Fatalf("Issued() = %d, want 8", p.Issued())
	}
}

func TestPerBankRatePerBank(t *testing.T) {
	window := ticks.FromUS(1.28)
	p, err := NewTPRACPerBank(window, 8)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 8)
	horizon := 20 * window
	for at := ticks.T(0); at <= horizon; at += window / 64 {
		for _, b := range p.DuePerBank(nil, at) {
			counts[b]++
		}
	}
	// Every bank must receive one RFMpb per window: the same per-bank
	// mitigation rate as channel-wide TB-RFM.
	for b, c := range counts {
		if c < 19 || c > 21 {
			t.Errorf("bank %d received %d RFMpbs over 20 windows, want about 20", b, c)
		}
	}
}

func TestPerBankNeverRequestsChannelRFMs(t *testing.T) {
	p, err := NewTPRACPerBank(ticks.FromUS(1), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if p.Due(ticks.FromUS(float64(i))) != 0 {
			t.Fatal("per-bank policy requested a channel-wide RFM")
		}
	}
	if p.Name() != "TPRAC-pb" {
		t.Errorf("Name() = %q", p.Name())
	}
}

func TestPerBankValidation(t *testing.T) {
	if _, err := NewTPRACPerBank(0, 4); err == nil {
		t.Error("zero window accepted")
	}
	if _, err := NewTPRACPerBank(ticks.FromUS(1), 0); err == nil {
		t.Error("zero banks accepted")
	}
	if _, err := NewTPRACPerBank(2, 4); err == nil {
		t.Error("window smaller than one tick per bank accepted")
	}
}
