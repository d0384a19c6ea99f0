package main

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Every fixed workload parameter is a flag of that workload's own flag
// set. The top-level flags -capacity, -cluster and -serve each take a
// space-separated list of them, such as -capacity "-rounds=10
// -deeper=1", and may repeat, so the parameters fit in the few
// arguments of BENCHMARK.json's command. That command gives every one
// of them: a parameter not given is an error, so a workload changes
// only when that file does.

// specs holds every workload's fixed parameters.
type specs struct {
	cap  capSpec
	clu  cluSpec
	srv  serveSpec
	sets []*flag.FlagSet
}

// workloadFlags is a top-level flag whose value is parsed by a
// workload's flag set.
type workloadFlags struct{ fs *flag.FlagSet }

func (w workloadFlags) String() string { return "" }

func (w workloadFlags) Set(v string) error {
	if err := w.fs.Parse(strings.Fields(v)); err != nil {
		return err
	}
	if w.fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", w.fs.Arg(0))
	}
	return nil
}

// register declares one top-level flag per workload on top.
func (s *specs) register(top *flag.FlagSet) {
	set := func(name string) *flag.FlagSet {
		fs := flag.NewFlagSet(name, flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		top.Var(workloadFlags{fs}, name, name+" workload parameters: space-separated -key=value flags (repeatable)")
		s.sets = append(s.sets, fs)
		return fs
	}
	fs := set("capacity")
	c := &s.cap
	fs.IntVar(&c.rounds, "rounds", 0, "rounds of queries generated")
	fs.IntVar(&c.digestRounds, "digest_rounds", 0, "rounds whose answers the digest covers")
	fs.IntVar(&c.deeper, "deeper", 0, "MaxDepth searches per round")
	fs.IntVar(&c.wider, "wider", 0, "MaxBatch searches per round")
	fs.IntVar(&c.dynamic, "dynamic", 0, "adaptive-vs-static RunDynamic pairs per round")
	fs.StringVar(&c.deeperFW, "deeper_framework", "", "framework of the MaxDepth searches")
	fs.Var((*intList)(&c.deeperBatch), "deeper_batches", "batches the MaxDepth searches run at")
	fs.IntVar(&c.maxN3, "max_n3", 0, "MaxDepth search limit")
	fs.Var((*strList)(&c.widerFW), "wider_frameworks", "frameworks of the MaxBatch searches")
	fs.Var((*strList)(&c.widerNets), "wider_networks", "networks of the MaxBatch searches")
	fs.StringVar(&c.dynNet, "dynamic_network", "", "network of the dynamic runs")
	fs.IntVar(&c.dynPoolMiB, "dynamic_pool_mib", 0, "device pool of the dynamic runs")
	fs.Var((*intList)(&c.dynBatches), "dynamic_batches", "batch sizes the dynamic schedules use")
	fs.IntVar(&c.dynLen, "dynamic_len", 0, "iterations per dynamic schedule")
	fs.IntVar(&c.setupReps, "setup_reps", 0, "set-up repetitions")

	fs = set("cluster")
	l := &s.clu
	fs.IntVar(&l.gangJobs, "gang_jobs", 0, "jobs in the gang trace")
	fs.IntVar(&l.gangWave, "gang_wave", 0, "gang jobs per arrival wave")
	fs.Int64Var(&l.gangWaveMS, "gang_wave_ms", 0, "ms between gang arrival waves")
	fs.IntVar(&l.coJobs, "cotenant_jobs", 0, "jobs in the co-tenant trace")
	fs.IntVar(&l.coWave, "cotenant_wave", 0, "co-tenant jobs per arrival wave")
	fs.Int64Var(&l.coWaveMS, "cotenant_wave_ms", 0, "ms between co-tenant arrival waves")
	fs.IntVar(&l.setupReps, "setup_reps", 0, "set-up repetitions")

	fs = set("serve")
	v := &s.srv
	fs.IntVar(&v.devices, "devices", 0, "K40c devices of the service")
	fs.Int64Var(&v.spacingMS, "spacing_ms", 0, "simulated ms between sequenced jobs")
	fs.IntVar(&v.snapshotEvery, "snapshot_every", 0, "jobs between snapshots")
	fs.IntVar(&v.prefill, "prefill_jobs", 0, "jobs in the prefilled WAL")
	fs.IntVar(&v.closedJobs, "closed_jobs", 0, "most submits of the closed loop")
	fs.IntVar(&v.tenants, "tenants", 0, "tenants the requests are dealt from")
	fs.Float64Var(&v.rate, "open_rate", 0, "open-loop submits per second of the traced run")
	fs.IntVar(&v.readEvery, "read_every", 0, "open-loop submits per status read")
	fs.Float64Var(&v.tailPct, "tail_pct", 0, "open-loop tail percentile of the traced run")
	fs.IntVar(&v.setupReps, "setup_reps", 0, "set-up repetitions")
	fs.IntVar(&v.twinJobs, "twin_jobs", 0, "requests fed to the twin services of the traced run")
}

// check refuses a workload parameter that was not given, then
// range-checks every workload's parameters.
func (s *specs) check() error {
	var missing []string
	for _, fs := range s.sets {
		set := map[string]bool{}
		fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
		fs.VisitAll(func(f *flag.Flag) {
			if !set[f.Name] {
				missing = append(missing, fs.Name()+" -"+f.Name)
			}
		})
	}
	if len(missing) > 0 {
		return fmt.Errorf("workload parameters not given: %s", strings.Join(missing, " "))
	}
	if err := s.cap.validate(); err != nil {
		return err
	}
	if err := s.clu.validate(); err != nil {
		return err
	}
	return s.srv.validate()
}

// intList is a comma-separated list of positive integers.
type intList []int

func (l *intList) String() string {
	s := make([]string, len(*l))
	for i, n := range *l {
		s[i] = strconv.Itoa(n)
	}
	return strings.Join(s, ",")
}

func (l *intList) Set(v string) error {
	*l = nil
	for _, s := range strings.Split(v, ",") {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			return fmt.Errorf("want a list of positive integers")
		}
		*l = append(*l, n)
	}
	return nil
}

// strList is a comma-separated list of names.
type strList []string

func (l *strList) String() string { return strings.Join(*l, ",") }

func (l *strList) Set(v string) error {
	*l = strings.Split(v, ",")
	return nil
}
