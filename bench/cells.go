package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"lazypoline/internal/core"
	"lazypoline/internal/experiments"
	"lazypoline/internal/fleet"
	"lazypoline/internal/guest"
	"lazypoline/internal/interpose"
	"lazypoline/internal/kernel"
	"lazypoline/internal/telemetry"
	"lazypoline/internal/webbench"
)

// Span names, one per layer boundary the benchmark can see from outside.
const (
	// spanCell is the root span of one cell run; its self time is what
	// no layer span below covers.
	spanCell           = "cell"
	spanKernelNew      = "kernel.new"
	spanKernelRunSlice = "kernel.run_slice"
	spanKernelRun      = "kernel.run"
	spanKernelTeardown = "kernel.teardown"
	spanGuestBuild     = "guest.build"
	spanLoaderSpawn    = "loader.spawn"
	spanMechAttach     = "mech.attach"
	spanWebBoot        = "webbench.boot"
	spanWebStep        = "webbench.step"
	spanFleetRun       = "fleet.run"
)

// env is what a cell run is given. On timed passes tr is nil: spans
// are no-ops and newSink returns nil, so the program runs with tracing
// off. On the traced pass every kernel the cell builds gets a metrics
// registry of its own (the kernel's collector overwrites, so registries
// cannot be shared) and the harness sums them afterwards.
type env struct {
	seed  uint64
	tr    *tracer
	sinks []*telemetry.Sink
	// parRounds and p99 are what a traced cell reports beside its
	// registries: parallel scheduling rounds (Figure 5 cells) and the
	// simulated p99 latency in cycles (fleet cells).
	parRounds uint64
	p99       uint64
}

func (e *env) newSink() *telemetry.Sink {
	if e.tr == nil {
		return nil
	}
	s := &telemetry.Sink{Metrics: telemetry.NewRegistry()}
	e.sinks = append(e.sinks, s)
	return s
}

// result is one cell run's simulated outcome.
type result struct {
	// digest is the canonical text of every simulated statistic of the
	// cell; it is what the golden file holds.
	digest string
	// failed counts units of work that did not complete.
	failed int
	// value is the statistic paper_err_pct is computed from: throughput
	// for Figure 5 cells, cycles per call for Table II cells, else 0.
	value float64
}

// cell is one fixed piece of a workload: the unit timed and digested.
type cell struct {
	name  string
	mech  string
	units int
	run   func(*env) (result, error)
}

// ---- Figure 5 cells -------------------------------------------------

const (
	webRequests    = 240
	webConnections = 36
)

func webCellName(style guest.ServerStyle, size, workers int, mech string) string {
	return fmt.Sprintf("%s/%dB/w%d/%s", style, size, workers, mech)
}

func webCell(style guest.ServerStyle, size, workers int, mech string, cores int) cell {
	return cell{
		name:  webCellName(style, size, workers, mech),
		mech:  mech,
		units: webRequests,
		run: func(e *env) (result, error) {
			cfg := webbench.Config{
				Style:       style,
				Workers:     workers,
				FileSize:    size,
				Connections: webConnections,
				Requests:    webRequests,
				Attach:      experiments.AttachFunc(mech),
				Cores:       cores,
			}
			var res webbench.Result
			var err error
			if e.tr == nil {
				res, err = webbench.Run(cfg)
			} else {
				cfg.Telemetry = e.newSink()
				var stats webbench.RunStats
				cfg.Stats = &stats
				res, err = tracedWebRun(cfg, e.tr)
				e.parRounds += stats.ParallelRounds
			}
			if err != nil {
				return result{}, err
			}
			return result{
				digest: fmt.Sprintf("requests=%d server_cycles=%d cycles_per_request=%v throughput=%v",
					res.Requests, res.ServerCycles, res.CyclesPerRequest, res.Throughput),
				failed: webRequests - res.Requests,
				value:  res.Throughput,
			}, nil
		},
	}
}

// webPort and webPath are webbench.Run's own (unexported) constants.
const (
	webPort = 8080
	webPath = "/www/static"
)

// tracedWebRun is webbench.Run re-created from the package's public
// pieces with a span around each call into a layer. It must stay the
// same program as webbench.Run: TestTracedWebRunMatchesRun compares the
// two, and every traced pass compares its digests with the untraced
// ones.
func tracedWebRun(cfg webbench.Config, tr *tracer) (webbench.Result, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Connections <= 0 {
		cfg.Connections = 36
	}
	id := tr.begin(spanKernelNew)
	k := kernel.New(kernel.Config{Costs: cfg.Costs, Telemetry: cfg.Telemetry, Cores: cfg.Cores})
	content := make([]byte, cfg.FileSize)
	for i := range content {
		content[i] = byte('a' + i%26)
	}
	if err := k.FS.MkdirAll("/www", 0o755); err != nil {
		return webbench.Result{}, err
	}
	if err := k.FS.WriteFile(webPath, content, 0o644); err != nil {
		return webbench.Result{}, err
	}
	k.FS.Seal()
	tr.end(id)

	id = tr.begin(spanGuestBuild)
	prog, err := guest.WebServer(guest.WebServerConfig{
		Style: cfg.Style, Port: webPort, Path: webPath, Workers: cfg.Workers,
	})
	tr.end(id)
	if err != nil {
		return webbench.Result{}, err
	}
	id = tr.begin(spanLoaderSpawn)
	master, err := prog.Spawn(k)
	tr.end(id)
	if err != nil {
		return webbench.Result{}, err
	}
	if cfg.Attach != nil {
		id = tr.begin(spanMechAttach)
		err := cfg.Attach(k, master)
		tr.end(id)
		if err != nil {
			return webbench.Result{}, err
		}
	}
	runSlice := func(steps int64) bool {
		id := tr.begin(spanKernelRunSlice)
		alive := k.RunSlice(steps)
		tr.end(id)
		return alive
	}

	client := webbench.NewClient(k.Net, webPort, cfg.Connections, guest.ResponseHeaderSize+cfg.FileSize, cfg.Requests)
	id = tr.begin(spanWebBoot)
	booted := false
	for i := 0; i < 1000 && !booted; i++ {
		runSlice(200_000)
		booted = client.Connect(k) == nil
	}
	tr.end(id)
	if !booted {
		return webbench.Result{}, errors.New("bench: server did not start listening")
	}

	workerCycles := func() map[int]uint64 {
		out := make(map[int]uint64)
		for _, t := range k.Tasks() {
			if t != master {
				out[t.ID] = t.CPU.Cycles
			}
		}
		return out
	}
	start := workerCycles()
	for i := 0; ; i++ {
		id := tr.begin(spanWebStep)
		client.Step()
		tr.end(id)
		if client.Done() {
			break
		}
		if client.AllDead() {
			return webbench.Result{}, fmt.Errorf("bench: all connections failed at %d/%d requests: %s",
				client.Completed(), cfg.Requests, client.DeadDetail())
		}
		if !runSlice(500_000) {
			return webbench.Result{}, errors.New("bench: all server tasks exited")
		}
		if i > 2_000_000 {
			return webbench.Result{}, fmt.Errorf("bench: stalled at %d/%d requests", client.Completed(), cfg.Requests)
		}
	}
	end := workerCycles()
	id = tr.begin(spanKernelTeardown)
	client.Close()
	k.KillAll()
	k.RunSlice(1_000_000)
	tr.end(id)

	var sum uint64
	for id, e := range end {
		sum += e - start[id]
	}
	if sum == 0 {
		return webbench.Result{}, errors.New("bench: no worker consumed cycles")
	}
	res := webbench.Result{Requests: client.Completed(), ServerCycles: sum}
	res.CyclesPerRequest = float64(sum) / float64(res.Requests)
	res.Throughput = float64(res.Requests) * webbench.ClockHz * float64(cfg.Workers) / float64(sum)
	if cfg.Stats != nil {
		cfg.Stats.ParallelRounds = k.ParallelRounds()
	}
	return res, nil
}

// ---- Table II cells -------------------------------------------------

const microIters = 20_000

func microCell(mech string) cell {
	return cell{
		name:  mech,
		mech:  mech,
		units: microIters,
		run: func(e *env) (result, error) {
			var perCall float64
			var err error
			if e.tr == nil {
				perCall, err = experiments.Table2Single(mech, microIters)
			} else {
				perCall, err = tracedMicroRun(mech, e)
			}
			if err != nil {
				return result{}, err
			}
			return result{digest: fmt.Sprintf("cycles_per_call=%v", perCall), value: perCall}, nil
		},
	}
}

// tracedMicroRun is experiments.Table2Single re-created with spans and a
// metrics registry. Table II rewrites lazypoline's sites up front, which
// experiments.AttachFunc does not offer, so those rows attach through
// package core directly.
func tracedMicroRun(mech string, e *env) (float64, error) {
	tr := e.tr
	id := tr.begin(spanKernelNew)
	k := kernel.New(kernel.Config{Telemetry: e.newSink()})
	tr.end(id)
	id = tr.begin(spanGuestBuild)
	prog, err := guest.Microbench(kernel.NonexistentSyscall, microIters)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	id = tr.begin(spanLoaderSpawn)
	task, err := prog.Spawn(k)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	id = tr.begin(spanMechAttach)
	switch mech {
	case experiments.MechLazypolineNX:
		_, err = core.Attach(k, task, interpose.Dummy{}, core.Options{NoXStateDefault: true, PreRewrite: true})
	case experiments.MechLazypoline:
		_, err = core.Attach(k, task, interpose.Dummy{}, core.Options{PreRewrite: true})
	case experiments.MechLazypolineMPK:
		_, err = core.Attach(k, task, interpose.Dummy{}, core.Options{PreRewrite: true, ProtectSelector: true})
	default:
		if attach := experiments.AttachFunc(mech); attach != nil {
			err = attach(k, task)
		}
	}
	tr.end(id)
	if err != nil {
		return 0, err
	}
	id = tr.begin(spanKernelRun)
	err = k.Run(-1)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	if task.ExitCode != 0 {
		return 0, fmt.Errorf("microbench exited %d", task.ExitCode)
	}
	return float64(task.CPU.Cycles) / microIters, nil
}

// ---- coreutils cells ------------------------------------------------

var coldLibcs = []guest.Libc{guest.LibcUbuntu2004(false), guest.LibcClearLinux()}

// coldMechs leaves out the two ablation rows (baseline+SUD-enabled,
// lazypoline+MPK): they attach like rows already present.
var coldMechs = []string{
	experiments.MechBaseline, experiments.MechZpoline, experiments.MechLazypolineNX,
	experiments.MechLazypoline, experiments.MechSUD, experiments.MechSeccompUser,
	experiments.MechPtrace,
}

// coldRepeats is how often a coreutils cell goes through its runs. One
// round of fourteen runs takes 7 ms, less than the Go collector's
// period on this allocation-heavy path; three rounds make a cell that
// carries its share of collection, so the fastest run of a cell is not
// simply the one the collector missed.
const coldRepeats = 3

// coreutilCell runs one utility to exit under every libc and mechanism,
// each in a kernel of its own, and checks exit code and console.
func coreutilCell(util string) cell {
	runs := coldRepeats * len(coldLibcs) * len(coldMechs)
	return cell{
		name:  util,
		units: runs,
		run: func(e *env) (result, error) {
			h := sha256.New()
			var res result
			var cycles uint64
			for i := 0; i < coldRepeats*len(coldLibcs); i++ {
				libc := coldLibcs[i%len(coldLibcs)]
				var console string
				for _, mech := range coldMechs {
					task, err := coreutilRun(util, libc, mech, e)
					if err != nil {
						return result{}, fmt.Errorf("%s/%s: %w", libc.Name, mech, err)
					}
					if task.ExitCode != 0 {
						res.failed++
					}
					// Interposition must be transparent: every mechanism
					// prints what the baseline (first in coldMechs) prints.
					if mech == experiments.MechBaseline {
						console = string(task.ConsoleOut)
					} else if string(task.ConsoleOut) != console {
						res.failed++
					}
					cycles += task.CPU.Cycles
					fmt.Fprintf(h, "%s/%s exit=%d cycles=%d console=%q\n",
						libc.Name, mech, task.ExitCode, task.CPU.Cycles, task.ConsoleOut)
				}
			}
			res.digest = fmt.Sprintf("runs=%d failed=%d cycles=%d sha256=%x", runs, res.failed, cycles, h.Sum(nil)[:8])
			return res, nil
		},
	}
}

var coreutilDirs = []string{"/tmp", "/etc", "/var/log"}

func coreutilRun(util string, libc guest.Libc, mech string, e *env) (*kernel.Task, error) {
	tr := e.tr
	id := tr.begin(spanKernelNew)
	k := kernel.New(kernel.Config{Telemetry: e.newSink()})
	for _, dir := range coreutilDirs {
		if err := k.FS.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	paths := make([]string, 0, len(guest.CoreutilFSFiles))
	for path := range guest.CoreutilFSFiles {
		paths = append(paths, path)
	}
	sort.Strings(paths) // inode numbers follow creation order
	for _, path := range paths {
		if err := k.FS.WriteFile(path, []byte(guest.CoreutilFSFiles[path]), 0o644); err != nil {
			return nil, err
		}
	}
	tr.end(id)

	id = tr.begin(spanGuestBuild)
	prog, err := guest.Coreutil(util, libc)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin(spanLoaderSpawn)
	task, err := prog.Spawn(k)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if attach := experiments.AttachFunc(mech); attach != nil {
		id = tr.begin(spanMechAttach)
		err := attach(k, task)
		tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	id = tr.begin(spanKernelRun)
	err = k.Run(50_000_000)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	return task, nil
}

// ---- fleet cells ----------------------------------------------------

// fleetSchedules is how many (drill, mechanism) cells fleet_drills has,
// and so how many arrival schedules it simulates.
const fleetSchedules = 15

// scheduleSeed is the fleet.Config.Seed of the i-th cell in a run with
// the given seed. The run's seed does not make new arrival schedules: it
// deals a fixed pool of fleetSchedules schedules (generator seeds
// goldenSeed, goldenSeed+1, ...) to the cells in a seeded order. Which
// schedule meets which drill and mechanism, and with it every cell's
// simulated result, follows the seed; the pool does not, so a run's
// total work — and its allocation per request, which is gated at 2-3 % —
// compares across seeds. Fresh schedules per seed move allocation per
// request by 4-6 % between seeds.
func scheduleSeed(seed uint64, i int) uint64 {
	order := rand.New(rand.NewSource(int64(seed))).Perm(fleetSchedules)
	return goldenSeed + uint64(order[i])
}

func fleetCell(i int, drill fleet.DrillKind, mech string) cell {
	fb := experiments.DefaultFleetBenchConfig()
	target := 0
	switch drill {
	case fleet.DrillKill, fleet.DrillSlow, fleet.DrillDrain:
		target = fb.Backends - 1 // as experiments.FleetBench: backend 0 stays up
	}
	return cell{
		name:  fmt.Sprintf("%s/%s", drill, mech),
		mech:  mech,
		units: fb.Requests,
		run: func(e *env) (result, error) {
			id := e.tr.begin(spanFleetRun)
			r, err := fleet.Run(fleet.Config{
				Backends:      fb.Backends,
				Workers:       fb.Workers,
				Style:         guest.StyleNginx,
				FileSize:      fb.FileSize,
				AppWorkIters:  fb.AppWorkIters,
				Requests:      fb.Requests,
				Rate:          fb.Rate,
				Seed:          scheduleSeed(e.seed, i),
				Drill:         fleet.Drill{Kind: drill, Backend: target},
				ProbeInterval: fb.ProbeInterval,
				ProbeTimeout:  fb.ProbeTimeout,
				Attach:        fleet.AttachFunc(experiments.AttachFunc(mech)),
				Telemetry:     e.newSink(),
			})
			e.tr.end(id)
			if err != nil {
				return result{}, err
			}
			e.p99 = r.P99
			return result{
				digest: fmt.Sprintf("requests=%d completed=%d lost=%d retries=%d timeouts=%d gen_refused=%d lb_refused=%d routed=%d "+
					"ejections=%d readmissions=%d drain_closed=%d eject_closed=%d probes_sent=%d probes_failed=%d "+
					"p50=%d p99=%d max=%d p50_pre=%d p99_pre=%d p50_mid=%d p99_mid=%d p50_post=%d p99_post=%d",
					r.Requests, r.Completed, r.Lost, r.Retries, r.Timeouts, r.GenRefused, r.LBRefused, r.Routed,
					r.Ejections, r.Readmissions, r.DrainClosed, r.EjectClosed, r.ProbesSent, r.ProbesFailed,
					r.P50, r.P99, r.Max, r.P50Pre, r.P99Pre, r.P50Mid, r.P99Mid, r.P50Post, r.P99Post),
				failed: r.Requests - r.Completed,
			}, nil
		},
	}
}
