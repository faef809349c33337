package dram

import "testing"

func TestAllPredefinedGradesValidate(t *testing.T) {
	for gen := DDR1; gen <= LPDDR3; gen++ {
		speeds := Speeds(gen)
		if len(speeds) != 3 {
			t.Fatalf("%s: want 3 predefined speeds, got %v", gen, speeds)
		}
		for _, mhz := range speeds {
			tm := MustSpeed(gen, mhz)
			if err := tm.Validate(); err != nil {
				t.Errorf("%s-%d: %v", gen, mhz, err)
			}
			if tm.ClockMHz != mhz || tm.Generation != gen {
				t.Errorf("%s-%d: grade mismatch %+v", gen, mhz, tm)
			}
		}
	}
}

func TestSpeedUnknownGrade(t *testing.T) {
	if _, err := Speed(DDR1, 999); err == nil {
		t.Fatal("want error for unknown grade")
	}
}

func TestSpeedsAscending(t *testing.T) {
	for gen := DDR1; gen <= LPDDR3; gen++ {
		s := Speeds(gen)
		if len(s) == 0 {
			t.Fatalf("%s: no predefined speeds", gen)
		}
		for i := 1; i < len(s); i++ {
			if s[i-1] >= s[i] {
				t.Errorf("%s: speeds not ascending: %v", gen, s)
			}
		}
	}
}

func TestDDR3WriteRecoveryMatchesPaper(t *testing.T) {
	// The paper: "in DDR III SDRAM working at an 800 MHz clock frequency,
	// it takes 23 clock cycles to deactivate any bank after writing".
	tm := MustSpeed(DDR3, 800)
	if got := tm.TWR + tm.TRP; got != 23 {
		t.Errorf("tWR+tRP = %d, want 23", got)
	}
}

func TestBurstCycles(t *testing.T) {
	cases := []struct {
		bl   int
		want int64
	}{{1, 1}, {2, 1}, {3, 2}, {4, 2}, {8, 4}, {16, 8}}
	for _, c := range cases {
		if got := BurstCycles(c.bl); got != c.want {
			t.Errorf("BurstCycles(%d) = %d, want %d", c.bl, got, c.want)
		}
	}
}

func TestWithDeviceBL(t *testing.T) {
	tm := MustSpeed(DDR2, 333).WithDeviceBL(4)
	if tm.DeviceBL != 4 {
		t.Fatalf("DeviceBL = %d, want 4", tm.DeviceBL)
	}
	if MustSpeed(DDR2, 333).DeviceBL != 8 {
		t.Fatal("WithDeviceBL mutated the grade table")
	}
}

func TestValidateRejections(t *testing.T) {
	base := MustSpeed(DDR2, 333)
	mut := []func(*Timing){
		func(tm *Timing) { tm.Generation = 0 },
		func(tm *Timing) { tm.ClockMHz = 0 },
		func(tm *Timing) { tm.Banks = 3 },
		func(tm *Timing) { tm.CL = 0 },
		func(tm *Timing) { tm.TRCD = 0 },
		func(tm *Timing) { tm.TRAS = tm.TRCD - 1 },
		func(tm *Timing) { tm.TRC = tm.TRAS },
		func(tm *Timing) { tm.TCCD = 0 },
		func(tm *Timing) { tm.DeviceBL = 3 },
		func(tm *Timing) { tm.OTF = true }, // DDR2 cannot be OTF
	}
	for i, f := range mut {
		tm := base
		f(&tm)
		if err := tm.Validate(); err == nil {
			t.Errorf("mutation %d: want validation error", i)
		}
	}
}
