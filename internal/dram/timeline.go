package dram

import (
	"fmt"
	"strings"
)

// Timeline records accepted commands and their data windows and renders
// them as a textual timing diagram in the style of the paper's Fig. 5 —
// one lane for the command bus, one for the data bus, one per bank. It is
// both a debugging aid (aanoc timing) and a documentation device: the
// package tests render the paper's auto-precharge scenario as a golden
// diagram.
type Timeline struct {
	events []timelineEvent
}

type timelineEvent struct {
	now int64
	cmd Command
	w   DataWindow
}

// Attach registers the timeline as the device's observer.
func (t *Timeline) Attach(d *Device) {
	d.Observer = func(now int64, cmd Command, w DataWindow) {
		t.events = append(t.events, timelineEvent{now: now, cmd: cmd, w: w})
	}
}

// mark returns the single-letter command mnemonic used on the command
// lane.
func mark(c Command) byte {
	switch c.Kind {
	case CmdActivate:
		return 'A'
	case CmdRead:
		if c.AutoPrecharge {
			return 'r'
		}
		return 'R'
	case CmdWrite:
		if c.AutoPrecharge {
			return 'w'
		}
		return 'W'
	case CmdPrecharge:
		return 'P'
	case CmdRefresh:
		return 'F'
	default:
		return '?'
	}
}

// Render draws the diagram from cycle `from` over `width` cycles.
// Command lane: A=ACT R/W=read/write (lowercase with auto-precharge)
// P=PRE F=REF. Data lane: '<' read data, '>' write data. Bank lanes show
// which cycles each bank's commands and bursts occupy.
func (t *Timeline) Render(from int64, width int) string {
	if width < 1 {
		return ""
	}
	cmdLane := blankLane(width)
	dataLane := blankLane(width)
	banks := map[int][]byte{}
	lane := func(b int) []byte {
		if _, ok := banks[b]; !ok {
			banks[b] = blankLane(width)
		}
		return banks[b]
	}
	put := func(l []byte, at int64, c byte) {
		if at >= from && at < from+int64(width) {
			l[at-from] = c
		}
	}
	span := func(l []byte, w DataWindow, c byte) {
		for at := w.Start; at < w.End; at++ {
			put(l, at, c)
		}
	}
	maxBank := 0
	for _, e := range t.events {
		put(cmdLane, e.now, mark(e.cmd))
		if e.cmd.Kind != CmdRefresh {
			put(lane(e.cmd.Bank), e.now, mark(e.cmd))
			if e.cmd.Bank > maxBank {
				maxBank = e.cmd.Bank
			}
		}
		if e.cmd.IsCAS() {
			c := byte('<')
			if e.cmd.Kind == CmdWrite {
				c = '>'
			}
			span(dataLane, e.w, c)
			span(lane(e.cmd.Bank), e.w, c)
		}
	}
	var sb strings.Builder
	ruler := blankLane(width)
	for i := range ruler {
		if (from+int64(i))%10 == 0 {
			ruler[i] = '|'
		}
	}
	fmt.Fprintf(&sb, "%-8s %s\n", "cycle", string(ruler))
	fmt.Fprintf(&sb, "%-8s %s\n", "cmd", string(cmdLane))
	fmt.Fprintf(&sb, "%-8s %s\n", "data", string(dataLane))
	for b := 0; b <= maxBank; b++ {
		if l, ok := banks[b]; ok {
			fmt.Fprintf(&sb, "bank %-3d %s\n", b, string(l))
		}
	}
	return sb.String()
}

// Events returns the number of recorded commands.
func (t *Timeline) Events() int { return len(t.events) }

// Commands lists the recorded commands with their cycles, for tests.
func (t *Timeline) Commands() []string {
	out := make([]string, 0, len(t.events))
	for _, e := range t.events {
		out = append(out, fmt.Sprintf("%d:%s", e.now, e.cmd))
	}
	return out
}

func blankLane(width int) []byte {
	l := make([]byte, width)
	for i := range l {
		l[i] = '.'
	}
	return l
}
