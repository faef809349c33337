// Command aanoc is the repository's one command line: every table and
// figure of the paper, and every tool around the simulator, is a
// subcommand sharing one set of run flags.
//
//	aanoc sim -app bluray -gen 2 -design GSS+SAGM
//	aanoc tables -table all -store DIR
//	aanoc help sweep
//
// Exit status: 0 on success; 1 on an error (bad input, a failed run);
// 2 on a usage error, an invariant violation or a calibration miss.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"aanoc/internal/obs"
)

// command is one subcommand. Errors are returned, never exited on: main
// owns the process exit status.
type command struct {
	name    string
	summary string
	// cancels marks a subcommand that stops on its context. main turns
	// SIGINT/SIGTERM into cancellation for these (an interrupted run
	// abandons within one kernel epoch, without dying mid-write) and
	// leaves the default disposition — kill — in place for the rest.
	cancels bool
	run     func(ctx context.Context, args []string, stdout, stderr io.Writer) error
}

var commands = []command{
	{"sim", "run one configuration (or one app across all designs) and print the paper's metrics", true, simCmd},
	{"tables", "regenerate Tables I, II, III and the scheduler grid", false, tablesCmd},
	{"sweep", "run an ablation grid (PCT, granularity, page policy, GSS routers, channels, scheduler) as CSV", true, sweepCmd},
	{"fig8", "regenerate Fig. 8: performance vs. number of GSS routers", false, fig8Cmd},
	{"report", "run the whole evaluation and emit the markdown paper-vs-measured report", false, reportCmd},
	{"trace", "record a memory-request trace, or replay one through other designs", false, traceCmd},
	{"gen", "generate seeded random scenario specs, optionally running and calibrating them", false, genCmd},
	{"area", "regenerate Table IV (gate counts) and Table V (power)", false, areaCmd},
	{"timing", "render Fig. 5 as textual timing diagrams from the device model", false, timingCmd},
	{"serve", "serve the simulator as an HTTP/JSON sweep service over the result store", true, serveCmd},
	{"store", "maintain a result store: gc removes the namespaces of earlier formats", false, storeCmd},
}

var (
	// errViolations is the distinguished error of a run that finished but
	// broke an invariant or missed its calibration; the details are
	// already on stderr. Exit status 2.
	errViolations = errors.New("invariant violations or calibration misses (listed above)")
	// errUsage marks a command line flags.parse rejected (and reported).
	// Exit status 2.
	errUsage = errors.New("usage")
)

func main() {
	ctx, stop := context.Background(), func() {}
	if len(os.Args) > 1 {
		if c := lookup(os.Args[1]); c != nil && c.cancels {
			ctx, stop = signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		}
	}
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run dispatches one command line and maps the subcommand's error onto
// the exit status. It is everything main does short of exiting, so the
// tests drive every subcommand in-process.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	name, rest := args[0], args[1:]
	if name == "help" || name == "-h" || name == "-help" || name == "--help" {
		if len(rest) == 0 {
			usage(stdout)
			return 0
		}
		// "aanoc help sub" is "aanoc sub -h", on stdout.
		name, rest, stderr = rest[0], []string{"-h"}, stdout
	}
	c := lookup(name)
	if c == nil {
		fmt.Fprintf(stderr, "aanoc: unknown subcommand %q\n\n", name)
		usage(stderr)
		return 2
	}
	err := c.run(ctx, rest, stdout, stderr)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		return 2
	}
	fmt.Fprintf(stderr, "aanoc %s: %v\n", name, err)
	if errors.Is(err, errViolations) || errors.Is(err, obs.ErrViolations) {
		return 2
	}
	return 1
}

func lookup(name string) *command {
	for i := range commands {
		if commands[i].name == name {
			return &commands[i]
		}
	}
	return nil
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: aanoc <subcommand> [flags]")
	fmt.Fprintln(w)
	for _, c := range commands {
		fmt.Fprintf(w, "  %-7s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "\"aanoc help <subcommand>\" prints a subcommand's usage and flags.")
	fmt.Fprintln(w, "Exit status: 0 ok, 1 error, 2 usage error / invariant violation / calibration miss.")
}
