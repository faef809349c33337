package dram

import (
	"strings"
	"testing"
)

func TestTimelineRecordsCommands(t *testing.T) {
	tm := MustSpeed(DDR2, 333)
	d := MustNewDevice(tm)
	var tl Timeline
	tl.Attach(d)
	issueAt(t, d, Command{Kind: CmdActivate, Bank: 0, Row: 1}, 0)
	issueAt(t, d, Command{Kind: CmdRead, Bank: 0, Row: 1, BL: 8}, tm.TRCD)
	if tl.Events() != 2 {
		t.Fatalf("events = %d, want 2", tl.Events())
	}
	cmds := tl.Commands()
	if !strings.HasPrefix(cmds[0], "0:ACT") || !strings.Contains(cmds[1], "RD") {
		t.Fatalf("commands = %v", cmds)
	}
}

func TestTimelineRenderFig5Style(t *testing.T) {
	// The paper's Fig. 5(c): BL4 column commands with auto-precharge need
	// no PRE commands on the bus; alternating banks transfer seamlessly.
	tm := MustSpeed(DDR2, 333).WithDeviceBL(4)
	d := MustNewDevice(tm)
	var tl Timeline
	tl.Attach(d)
	issueAt(t, d, Command{Kind: CmdActivate, Bank: 0, Row: 1}, 0)
	issueAt(t, d, Command{Kind: CmdActivate, Bank: 1, Row: 2}, tm.TRRD)
	// Time the column commands so the two BL4 bursts meet seamlessly on
	// the data bus: bank 1's CAS must clear its own tRCD (after the tRRD
	// spaced ACT), and bank 0's CAS goes tCCD earlier.
	second := tm.TRRD + tm.TRCD
	issueAt(t, d, Command{Kind: CmdWrite, Bank: 0, Row: 1, BL: 4, AutoPrecharge: true}, second-tm.TCCD)
	issueAt(t, d, Command{Kind: CmdWrite, Bank: 1, Row: 2, BL: 4, AutoPrecharge: true}, second)
	out := tl.Render(0, 24)
	// Lanes exist.
	for _, lane := range []string{"cycle", "cmd", "data", "bank 0", "bank 1"} {
		if !strings.Contains(out, lane) {
			t.Fatalf("missing lane %q in:\n%s", lane, out)
		}
	}
	// Two ACTs, two AP writes, no explicit PRE on the command lane.
	cmdLine := laneOf(out, "cmd")
	if strings.Count(cmdLine, "A") != 2 || strings.Count(cmdLine, "w") != 2 {
		t.Fatalf("command lane wrong:\n%s", out)
	}
	if strings.Contains(cmdLine, "P") {
		t.Fatalf("auto-precharge scenario must not show PRE commands:\n%s", out)
	}
	// Write data occupies the data lane seamlessly (4 cycles: two BL4
	// bursts back to back at tCCD=2).
	if strings.Count(laneOf(out, "data"), ">") != 4 {
		t.Fatalf("data lane wrong:\n%s", out)
	}
}

func laneOf(render, name string) string {
	for _, line := range strings.Split(render, "\n") {
		if strings.HasPrefix(line, name) {
			return line
		}
	}
	return ""
}

func TestTimelineRenderWindowing(t *testing.T) {
	tm := MustSpeed(DDR1, 200)
	d := MustNewDevice(tm)
	var tl Timeline
	tl.Attach(d)
	issueAt(t, d, Command{Kind: CmdActivate, Bank: 2, Row: 1}, 5)
	// A window that excludes the event renders blank lanes.
	out := tl.Render(100, 10)
	if strings.Contains(laneOf(out, "cmd"), "A") {
		t.Fatalf("event outside window rendered:\n%s", out)
	}
	if tl.Render(0, 0) != "" {
		t.Fatal("zero width should render empty")
	}
}
