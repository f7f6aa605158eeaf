package main

import "runtime"

// workloads maps each fixed workload name to its driver.
var workloads = map[string]func(*run) error{
	"paper_sim":  paperSim,
	"mega_epoch": megaEpoch,
	"serve_read": serveRead,
	"serve_live": serveLive,
}

// overhead records what tracing cost: the measured phase of this traced
// run against the same phase of the last untraced run of the same workload
// in this checkout (0 when there is none, or it ran other inputs).
func (r *run) overhead() {
	share := 0.0
	if base, err := loadRecord(recordPath(r.opt.outDir, r.opt.workload, false)); err == nil &&
		base.Seed == r.opt.seed && base.Seconds == r.opt.seconds && base.Tiny == r.opt.tiny && base.MeasuredS > 0 {
		share = (r.measured.Seconds() - base.MeasuredS) / base.MeasuredS
	}
	r.set("trace.overhead_share", share, 1)
}

// finish adds the process-level metrics once the workload is done.
func (r *run) finish() {
	// On a serve workload the process that served (the dgs-api child when
	// untraced) is the one to describe: the load generator is not the system.
	rss, cpu := selfUsage()
	if r.serverRSS > 0 {
		rss, cpu = r.serverRSS, r.serverCPU
	}
	r.set("peak_rss_mb", rss, 1)
	if r.tr == nil {
		return
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.set("proc.peak_rss_mb", rss, 1)
	r.set("proc.cpu_s", cpu.Seconds(), 1)
	r.set("proc.cpu_util", cpu.Seconds()/r.wall.Seconds()/float64(runtime.GOMAXPROCS(0)), 1)
	r.set("proc.num_gc", float64(m.NumGC), 1)
	r.set("proc.gc_pause_ms", float64(m.PauseTotalNs)/1e6, int(m.NumGC))
	r.set("trace.spans", float64(len(r.tr.all())), 1)
}
