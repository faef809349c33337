package aanoc

// Validation-parity table: the same bad run parameter, injected once as
// a typed Config field and once as a spec's embedded run block, must be
// rejected with the same facade sentinel — the observable contract of
// routing both paths through the one shared scenario.Resolve.

import (
	"errors"
	"testing"

	"aanoc/internal/appmodel"
	"aanoc/internal/scenario"
)

func TestSpecFacadeParity(t *testing.T) {
	cases := []struct {
		name string
		app  string
		run  SpecRun
		want error
	}{
		{"generation-high", "bluray", SpecRun{Generation: 9}, ErrBadGeneration},
		{"generation-negative", "bluray", SpecRun{Generation: -1}, ErrBadGeneration},
		{"channels-negative", "bluray", SpecRun{Channels: -1}, ErrBadChannels},
		{"channels-over-ports", "bluray", SpecRun{Channels: 2}, ErrBadChannels},
		{"channels-xor-odd", "ddtv4", SpecRun{Channels: 3, Scheme: "chan-bank-xor"}, ErrBadChannels},
		{"scheduler", "bluray", SpecRun{Scheduler: "fcfs"}, ErrUnknownScheduler},
		{"sample-every", "bluray", SpecRun{SampleEvery: -1}, ErrBadSampleEvery},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Path 1: typed facade fields.
			cfg := Config{
				Model:       App(tc.app),
				Generation:  tc.run.Generation,
				Channels:    tc.run.Channels,
				SampleEvery: tc.run.SampleEvery,
			}
			if tc.run.Scheme != "" {
				sch, err := ParseChannelScheme(tc.run.Scheme)
				if err != nil {
					t.Fatal(err)
				}
				cfg.ChannelScheme = sch
			}
			if tc.run.Scheduler != "" {
				// A typed Scheduler has no value for an unknown name: the
				// typed path refuses it where it parses the name.
				if _, err := ParseScheduler(tc.run.Scheduler); !errors.Is(err, tc.want) {
					t.Errorf("typed fields: ParseScheduler = %v, want %v", err, tc.want)
				}
			} else if err := cfg.Validate(); !errors.Is(err, tc.want) {
				t.Errorf("typed fields: Validate = %v, want %v", err, tc.want)
			}

			// Path 2: the same values embedded in a spec's run block.
			app, err := appmodel.ByName(tc.app)
			if err != nil {
				t.Fatal(err)
			}
			sp := scenario.FromApp(app)
			run := tc.run
			sp.Run = &run
			if err := (Config{Spec: sp}).Validate(); !errors.Is(err, tc.want) {
				t.Errorf("spec run block: Validate = %v, want %v", err, tc.want)
			}
		})
	}

	// Spec + Model remains the one spec-specific rejection.
	sp := scenario.FromApp(appmodel.BluRay())
	if err := (Config{Spec: sp, Model: AppBluRay}).Validate(); !errors.Is(err, ErrBadSpec) {
		t.Errorf("Spec+Model accepted; want ErrBadSpec")
	}
	// And the two paths accept the same valid input.
	if err := (Config{Spec: sp}).Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}
