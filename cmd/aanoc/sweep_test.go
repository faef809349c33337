package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"reflect"
	"strings"
	"testing"
)

// TestSweepChannelsListsAcceptedCounts pins the channels grid's point
// column: every count up to the app's memory ports, except those the
// interleaving scheme rejects (chan-bank-xor folds channel bits with a
// mask, so it takes powers of two only).
func TestSweepChannelsListsAcceptedCounts(t *testing.T) {
	for _, tc := range []struct {
		scheme string
		points []string
	}{
		{"bank-chan", []string{"chan=1", "chan=2", "chan=3", "chan=4"}},
		{"chan-bank-xor", []string{"chan=1", "chan=2", "chan=4"}},
	} {
		t.Run(tc.scheme, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := strings.Fields("sweep -sweep channels -app ddtv4 -chan-scheme " + tc.scheme + " -cycles 3000")
			if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			rows, err := csv.NewReader(&stdout).ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			var points []string
			for _, row := range rows[1:] {
				points = append(points, row[0])
			}
			if !reflect.DeepEqual(points, tc.points) {
				t.Errorf("points %v, want %v", points, tc.points)
			}
		})
	}
}
