package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"strings"

	"aanoc/internal/scenario"
	"aanoc/internal/store"
)

const storeUsage = `aanoc store gc removes what earlier store formats left under a result
store: every namespace directory under -store but the current one. It
prints each directory it removed and never touches the current
namespace.

  aanoc store gc -store /var/cache/aanoc
`

func storeCmd(_ context.Context, args []string, stdout, stderr io.Writer) error {
	action := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		action, args = args[0], args[1:]
	}
	f := newFlags("store "+action, storeUsage, stderr, scenario.Run{})
	dir := f.String("store", "", "result-store directory")
	if err := f.parse(args); err != nil {
		return err
	}
	if action != "gc" {
		fmt.Fprintf(stderr, "aanoc store: unknown action %q (want gc)\n", action)
		return errUsage
	}
	if *dir == "" {
		return fmt.Errorf("gc needs -store DIR")
	}
	removed, err := store.GC(*dir)
	for _, name := range removed {
		fmt.Fprintf(stdout, "removed %s\n", filepath.Join(*dir, name))
	}
	return err
}
