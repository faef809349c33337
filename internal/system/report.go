package system

import (
	"fmt"
	"strings"

	"aanoc/internal/memctrl"
	"aanoc/internal/noc"
	"aanoc/internal/obs"
	"aanoc/internal/traffic"
)

// This file is where the runner's counters become the obs.Report: each
// channel and core builds its own section from the counters it owns, and
// the aggregates are folds over those sections.

// sample appends one time-series point at the given cycle, covering the
// window of the last interval cycles.
func (r *Runner) sample(cycle, interval int64) {
	queued := 0
	for _, c := range r.cores {
		queued += c.inj.QueueFlits()
	}
	var dc int64
	ready := 0
	for i := range r.chans {
		dc += r.chans[i].dev.Stats().DataCycles
		ready += r.chans[i].sink.Ready()
	}
	// Multi-channel windows report the mean per-channel utilization, so
	// the [0,1] bound holds at any channel count.
	r.samples = append(r.samples, obs.Sample{
		Cycle:       cycle,
		Utilization: float64(dc-r.lastSampleD) / float64(interval*int64(len(r.chans))),
		Outstanding: r.parents.live,
		QueueFlits:  queued,
		MemReady:    ready,
	})
	r.lastSampleD = dc
}

// Finish assembles the run's report and returns the Result it records.
func (r *Runner) Finish() Result {
	now := r.kern.Now()
	// Settle each device through the last simulated cycle: the controller
	// may have slept through the run's tail, leaving auto-precharges
	// pending that the old every-cycle tick would have retired.
	if now > 0 {
		for i := range r.chans {
			r.chans[i].dev.Sync(now - 1)
		}
	}
	r.settleAll()
	rep := r.buildReport(now)
	if r.chk != nil {
		r.finalChecks(rep)
	}
	res, err := ResultOf(rep)
	if err != nil {
		// The report names the validated config's design and scheduler.
		panic(fmt.Sprintf("system: the run's own report does not read back: %v", err))
	}
	return res
}

// buildReport assembles the observability report from the counters the
// substrates maintained during the run.
func (r *Runner) buildReport(now int64) *obs.Report {
	cfg := r.cfg
	sched := ""
	if cfg.Scheduler != memctrl.SchedDefault {
		sched = cfg.Scheduler.String()
	}
	// The memory side is built per channel first; the run's utilization
	// is the mean over channels, so the [0,1] bound holds at any count.
	chans := make([]obs.ChannelStat, len(r.chans))
	var util float64
	for i := range r.chans {
		chans[i] = r.chans[i].stat(i, now)
		util += chans[i].Utilization
	}
	rep := &obs.Report{
		SchemaVersion: obs.Schema,
		Design:        cfg.Design.String(), App: cfg.App.Name, Gen: int(cfg.Gen),
		ClockMHz: cfg.ClockMHz, Cycles: now, Warmup: max(cfg.Warmup, 0), Seed: cfg.Seed,
		Scheduler:   sched,
		Utilization: util / float64(len(chans)),
		Latency: obs.Latencies{
			All:      r.met.All.Summarize(),
			Demand:   r.met.Demand.Summarize(),
			Priority: r.met.Priority.Summarize(),
			Best:     r.met.Best.Summarize(),
			Reads:    r.met.Reads.Summarize(),
			Writes:   r.met.Writes.Summarize(),
			Source:   r.met.SourceLatency.Summarize(),
		},
		Network: obs.Network{
			Request:  meshStats(r.reqMesh, now),
			Response: meshStats(r.respMesh, now),
		},
		NIs:         make([]obs.NI, len(r.cores)),
		Memory:      foldChannels(chans),
		SampleEvery: cfg.SampleEvery,
		Samples:     r.samples,
	}
	rep.Memory.Scheduler = r.schedulerStat(now)
	for i := range r.chans {
		st := r.chans[i].dev.Stats()
		rep.Memory.Refreshes += st.Refreshes
		rep.Memory.BurstBeats += st.BurstsBL
		rep.Memory.UsefulBeats += st.UsefulBeats
	}
	// The run's request and stall counts are folds of the cores' own.
	for i, c := range r.cores {
		rep.NIs[i] = c.niStat()
		rep.Generated += c.generated
		rep.Completed += c.completed
		rep.Stalled += c.stalls
		if cfg.WorkloadStats {
			rep.Workload = c.appendWorkload(rep.Workload)
		}
	}
	for _, rt := range r.gssRouters {
		for p := range rt.Out {
			rep.GSSGrants += rt.Out[p].Grants
		}
	}
	return rep
}

// niStat is the core's network-interface section of the report.
func (c *coreNI) niStat() obs.NI {
	return obs.NI{
		Core: c.spec.Name, QueueFlitsHWM: c.inj.QueueFlitsHWM(), StallCycles: c.stalls, SinkReadyHWM: c.sink.ReadyHWM(),
		Completed: c.completed, Beats: c.beats, LatencySum: c.latencySum,
	}
}

// appendWorkload appends the core's per-stream production breakdown from
// the generators' own counters, in stream order. Replay sources (trace
// records, not synthetic generators) contribute nothing.
func (c *coreNI) appendWorkload(out []obs.StreamWorkload) []obs.StreamWorkload {
	for _, src := range c.gens {
		g, ok := src.(*traffic.Gen)
		if !ok {
			continue
		}
		w := obs.StreamWorkload{
			Core: c.spec.Name, Stream: g.Spec.Name,
			Produced: g.Reads + g.Writes, Reads: g.Reads, Writes: g.Writes,
			BlockedCycles: g.Blocked,
		}
		menu, counts := g.BeatHistogram()
		for i, b := range menu {
			w.Beats = append(w.Beats, obs.BeatBin{Beats: b, Count: counts[i]})
		}
		out = append(out, w)
	}
	return out
}

// stat is the channel's section of the memory report.
func (c *channel) stat(ch int, now int64) obs.ChannelStat {
	counters := c.dev.BankCounters()
	cs := obs.ChannelStat{
		Channel:      ch,
		Port:         c.port.String(),
		Utilization:  c.dev.Utilization(now),
		DataCycles:   c.dev.Stats().DataCycles,
		Splits:       c.sent,
		Completions:  c.done,
		SinkReadyHWM: c.sink.ReadyHWM(),
		Banks:        make([]obs.BankStat, len(counters)),
	}
	for i, b := range counters {
		cs.Banks[i] = obs.BankStat{
			Bank: i, Activates: b.Activates, Reads: b.Reads, Writes: b.Writes,
			RowHits: b.RowHits, Precharges: b.Precharges, AutoPre: b.AutoPre,
		}
	}
	if s, ok := c.ctrl.(*memctrl.Simple); ok {
		q := obs.StreamQuality(s.StreamStats)
		cs.Stream = &q
	}
	return cs
}

// foldChannels builds the memory section from the per-channel ones. The
// flat fields aggregate across channels — each bank index summed over
// the devices, the worst sink, the summed pair classifications — and are
// byte-identical to the single-SDRAM schema at one channel; the channel
// breakdown and its load-imbalance factor are attached only when there
// is more than one.
func foldChannels(chans []obs.ChannelStat) obs.Memory {
	mem := obs.Memory{Banks: make([]obs.BankStat, len(chans[0].Banks))}
	var busiest int64
	for _, cs := range chans {
		mem.SinkReadyHWM = max(mem.SinkReadyHWM, cs.SinkReadyHWM)
		for i, b := range cs.Banks {
			a := &mem.Banks[i]
			a.Bank = i
			a.Activates += b.Activates
			a.Reads += b.Reads
			a.Writes += b.Writes
			a.RowHits += b.RowHits
			a.Precharges += b.Precharges
			a.AutoPre += b.AutoPre
		}
		if s := cs.Stream; s != nil {
			if mem.Stream == nil {
				mem.Stream = &obs.StreamQuality{}
			}
			mem.Stream.RowHits += s.RowHits
			mem.Stream.Interleaves += s.Interleaves
			mem.Stream.Conflicts += s.Conflicts
			mem.Stream.Contentions += s.Contentions
		}
		busiest = max(busiest, cs.DataCycles)
		mem.DataCycles += cs.DataCycles
	}
	if len(chans) == 1 {
		return mem
	}
	mem.Channels = chans
	// Imbalance accompanies every channel breakdown — including the
	// perfectly balanced and the idle (0) cases, which an omitempty
	// float64 would drop from the JSON sidecar.
	var imb float64
	if total := mem.DataCycles; total > 0 {
		mean := float64(total) / float64(len(chans))
		imb = float64(busiest) / mean
	}
	mem.Imbalance = &imb
	return mem
}

// schedulerStat is the per-scheduler decision breakdown, aggregated
// across channels (nil for the default controllers, so pre-zoo sidecars
// stay byte-identical).
func (r *Runner) schedulerStat(now int64) *obs.SchedulerStat {
	if r.cfg.Scheduler == memctrl.SchedDefault {
		return nil
	}
	st := &obs.SchedulerStat{Name: r.cfg.Scheduler.String()}
	for i := range r.chans {
		switch c := r.chans[i].ctrl.(type) {
		case *memctrl.DPQ:
			st.Grants += c.Grants()
			st.MaxBacklog = max(st.MaxBacklog, c.MaxBacklog())
		case *memctrl.Regulator:
			st.Grants += c.Grants()
			st.Throttled += c.Stats.Throttled
			// Windows opened after the first: a function of the run length
			// alone, whatever cycles the kernel let the controller sleep.
			st.WindowRolls += (now - 1) / memctrl.RegulatorWindow
		case *memctrl.Staged:
			st.Grants += c.Grants()
			st.LightGrants += c.Grants() - c.Stats.HeavyGrants
			st.HeavyGrants += c.Stats.HeavyGrants
			st.Reclassifications += c.Stats.Reclassifications
		}
		if m := r.chans[i].dpqMon; m != nil {
			st.WCETChecked += m.Checked
		}
	}
	return st
}

// eachLink visits one mesh's connected output ports in router-index then
// port order — the order of the report's link list.
func eachLink(m *noc.Mesh, visit func(rt *noc.Router, port int, o *noc.OutputPort)) {
	for _, rt := range m.Routers {
		for p := 0; p < noc.NumPorts; p++ {
			if o := &rt.Out[p]; o.Connected() {
				visit(rt, p, o)
			}
		}
	}
}

// meshStats flattens one mesh's connected output ports and totals their
// activity. The link list is sized once, and every router's "(x,y)"
// label is a slice of one string: a strings.Builder never rewrites the
// bytes it has already handed out.
func meshStats(m *noc.Mesh, cycles int64) obs.MeshStats {
	n := 0
	eachLink(m, func(*noc.Router, int, *noc.OutputPort) { n++ })
	ms := obs.MeshStats{Links: make([]obs.LinkStat, 0, n)}
	var labels strings.Builder
	labels.Grow(len(m.Routers) * len("(10,10)"))
	var num [24]byte
	var labelled *noc.Router
	label := ""
	eachLink(m, func(rt *noc.Router, p int, o *noc.OutputPort) {
		if rt != labelled {
			start := labels.Len()
			labels.Write(rt.Pos.Append(num[:0]))
			label, labelled = labels.String()[start:], rt
		}
		util := 0.0
		if cycles > 0 {
			util = float64(o.BusyCycles) / float64(cycles)
		}
		ms.BusyCycles += o.BusyCycles
		ms.Links = append(ms.Links, obs.LinkStat{
			Router:      label,
			Port:        noc.PortName(p),
			BusyCycles:  o.BusyCycles,
			Grants:      o.Grants,
			Utilization: util,
		})
	})
	return ms
}
