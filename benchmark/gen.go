package main

// Seeded input generators. Every workload input comes from here, as a
// pure function of the seed and the fixed parameters: the same seed
// gives the same inputs, and the program under test sees only the
// generated inputs, never the seed.
//
// Draws are stratified: a deck deals every choice once, in seeded
// order, before any repeats. Each round of a workload therefore holds
// the same mix of costs under every seed, and seeds differ in order
// and pairing rather than in how much work a run contains. That keeps
// the run-to-run spread a measure of the host, not of the inputs.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/serve"
	"repro/internal/workload"
)

// rng is splitmix64.
type rng struct{ s uint64 }

// newRNG derives an independent stream per purpose from the seed.
func newRNG(seed uint64, stream string) *rng {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return &rng{s: seed ^ h.Sum64()}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// deck deals 0..n-1 in a fresh seeded order each pass.
type deck struct {
	r     *rng
	order []int
	pos   int
}

func newDeck(r *rng, n int) *deck { return &deck{r: r, order: r.perm(n)} }

func (d *deck) next() int {
	if d.pos == len(d.order) {
		d.order, d.pos = d.r.perm(len(d.order)), 0
	}
	d.pos++
	return d.order[d.pos-1]
}

// ---- capacity ----

// capQuery is one capacity question on the Tesla K40c.
type capQuery struct {
	Kind      string            `json:"kind"` // deeper, wider or dynamic
	Framework string            `json:"framework,omitempty"`
	Network   string            `json:"network"`
	Batch     int               `json:"batch,omitempty"` // deeper: the batch searched at
	Limit     int               `json:"limit,omitempty"` // deeper: max n3; wider: max batch
	Shape     string            `json:"shape,omitempty"` // dynamic: ramp or buckets
	Schedule  workload.Schedule `json:"schedule,omitempty"`
}

func (q capQuery) key() string {
	b, _ := json.Marshal(q)
	return string(b)
}

type capSpec struct {
	rounds       int
	digestRounds int
	// deeper, wider and dynamic are the queries of each kind per round.
	deeper, wider, dynamic int
	deeperFW               string
	deeperBatch            []int
	maxN3                  int
	widerFW                []string
	widerNets              []string
	dynNet                 string
	dynPoolMiB             int
	dynBatches             []int
	dynLen                 int
	setupReps              int
}

func (sp capSpec) validate() error {
	for _, n := range sp.widerNets {
		if _, ok := workload.Table5SearchLimit[n]; !ok {
			return fmt.Errorf("wider network %q has no Table 5 search limit", n)
		}
	}
	if len(sp.dynBatches) < 3 || sp.dynLen < 2 || sp.rounds < 1 || sp.digestRounds < 1 ||
		sp.digestRounds > sp.rounds || sp.setupReps < 1 || sp.deeper < 0 || sp.wider < 1 || sp.dynamic < 0 ||
		len(sp.deeperBatch) < 1 || len(sp.widerFW) < 1 || sp.maxN3 < 1 || sp.dynPoolMiB < 1 {
		return fmt.Errorf("capacity parameters out of range")
	}
	return nil
}

// isPct reports whether p is a percentile strictly inside (0, 100).
func isPct(p float64) bool { return p > 0 && p < 100 }

// perRound is the number of queries in a round.
func (sp capSpec) perRound() int { return sp.deeper + sp.wider + sp.dynamic }

// genCapacity returns the seeded query list as rounds. Every round
// holds sp.deeper, sp.wider and sp.dynamic queries of each kind in a seeded order.
func genCapacity(sp capSpec, seed uint64) [][]capQuery {
	r := newRNG(seed, "capacity")
	deeperBatch := newDeck(r, len(sp.deeperBatch))
	wider := newDeck(r, len(sp.widerFW)*len(sp.widerNets))
	shapes := newDeck(r, 2)
	bs := append([]int(nil), sp.dynBatches...)
	sort.Ints(bs)
	rampPairs := [][2]int{}
	for i := range bs {
		for j := i + 2; j < len(bs); j++ {
			rampPairs = append(rampPairs, [2]int{i, j})
		}
	}
	ramp := newDeck(r, len(rampPairs))
	bucket := newDeck(r, len(bs))

	rounds := make([][]capQuery, sp.rounds)
	for ri := range rounds {
		var qs []capQuery
		for i := 0; i < sp.deeper; i++ {
			qs = append(qs, capQuery{Kind: "deeper", Framework: sp.deeperFW, Network: "ResNetTable4",
				Batch: sp.deeperBatch[deeperBatch.next()], Limit: sp.maxN3})
		}
		for i := 0; i < sp.wider; i++ {
			k := wider.next()
			fw, net := sp.widerFW[k/len(sp.widerNets)], sp.widerNets[k%len(sp.widerNets)]
			qs = append(qs, capQuery{Kind: "wider", Framework: fw, Network: net,
				Limit: workload.Table5SearchLimit[net]})
		}
		for i := 0; i < sp.dynamic; i++ {
			q := capQuery{Kind: "dynamic", Network: sp.dynNet}
			if shapes.next() == 0 {
				pr := rampPairs[ramp.next()]
				s := workload.Ramp(bs[pr[0]], bs[pr[1]], sp.dynLen)
				if r.intn(2) == 1 {
					for a, b := 0, len(s)-1; a < b; a, b = a+1, b-1 {
						s[a], s[b] = s[b], s[a]
					}
				}
				q.Shape, q.Schedule = "ramp", s
			} else {
				// Three distinct buckets, repeated to dynLen iterations.
				picked := []int{bs[bucket.next()]}
				for len(picked) < 3 {
					b := bs[r.intn(len(bs))]
					if b != picked[0] && (len(picked) < 2 || b != picked[1]) {
						picked = append(picked, b)
					}
				}
				s := workload.Buckets((sp.dynLen+2)/3, picked...)[:sp.dynLen]
				q.Shape, q.Schedule = "buckets", s
			}
			qs = append(qs, q)
		}
		for i, j := range r.perm(len(qs)) {
			_ = i
			rounds[ri] = append(rounds[ri], qs[j])
		}
	}
	return rounds
}

// ---- cluster ----

type jobShape struct {
	network  string
	batch    int
	schedule string // compact batch-schedule syntax, "" for static
	manager  string
}

// gangFamilies expand into the gang trace's distinct single-replica
// shapes, one per listed batch. Real traces carry many batch sizes, so
// filling the estimator is a dry run per shape; every shape fits a
// Tesla K40c, so no job is rejected up front.
var gangFamilies = []struct {
	network, manager string
	batches          []int
}{
	{"AlexNet", "naive", []int{64, 128, 192, 256, 320, 384, 448, 512}},
	{"AlexNet", "superneurons", []int{128, 256, 384, 512, 640, 768}},
	{"AlexNet", "vdnn", []int{128, 256, 384, 512}},
	{"VGG16", "caffe", []int{8, 16, 24, 32}},
	{"VGG16", "superneurons", []int{8, 16, 24, 32, 40, 48}},
	{"VGG19", "vdnn", []int{8, 16, 24, 32}},
	{"ResNet50", "superneurons", []int{8, 16, 24, 32, 40, 48}},
	{"ResNet50", "vdnn", []int{8, 16, 24, 32}},
	{"ResNet50", "naive", []int{8, 16, 24}},
	{"ResNet101", "superneurons", []int{8, 16, 24, 32}},
	{"ResNet152", "vdnn", []int{8, 16, 24}},
	{"InceptionV4", "vdnn", []int{8, 16, 24}},
	{"DenseNet121", "superneurons", []int{8, 16, 24, 32}},
}

func gangShapes() []jobShape {
	var out []jobShape
	for _, f := range gangFamilies {
		for _, b := range f.batches {
			out = append(out, jobShape{network: f.network, batch: b, manager: f.manager})
		}
	}
	return out
}

// gangSizes weights gang widths: half single-device jobs, a thin tail
// of 16-wide gangs that must span nodes.
var gangSizes = []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 4, 4, 4, 8, 8, 16}

// coShapes are the co-tenant trace's shapes: static and dynamic-batch
// jobs whose dry-run peaks sit between about half and two thirds of a
// K40c, so isolated admission fits one per device and cross-job
// planning stacks several.
var coShapes = []jobShape{
	{"AlexNet", 512, "", "naive"},
	{"ResNet50", 32, "", "naive"},
	{"VGG16", 32, "", "caffe"},
	{"AlexNet", 512, "128x2,512", "naive"},
	{"AlexNet", 512, "64,512,128", "superneurons"},
	{"ResNet50", 32, "8x3,32", "naive"},
	{"AlexNet", 256, "", "naive"},
	{"AlexNet", 256, "128,256x2", "vdnn"},
}

type cluSpec struct {
	gangJobs   int
	gangWaveMS int64
	gangWave   int
	coJobs     int
	coWaveMS   int64
	coWave     int
	setupReps  int
}

func (sp cluSpec) validate() error {
	if sp.gangJobs < 1 || sp.coJobs < 1 || sp.gangWave < 1 || sp.coWave < 1 || sp.gangWaveMS < 1 || sp.coWaveMS < 1 ||
		sp.setupReps < 1 {
		return fmt.Errorf("cluster parameters out of range")
	}
	return nil
}

// genTrace deals n jobs from shapes in arrival waves of wave jobs
// every waveMS, jittered inside the wave.
func genTrace(r *rng, prefix string, n int, shapes []jobShape, sizes []int, wave int, waveMS int64, iters int) []workload.TraceJob {
	shape := newDeck(r, len(shapes))
	size := newDeck(r, len(sizes))
	it := newDeck(r, iters)
	jobs := make([]workload.TraceJob, 0, n)
	for i := 0; i < n; i++ {
		sh := shapes[shape.next()]
		tj := workload.TraceJob{
			ID:         fmt.Sprintf("%s%04d", prefix, i),
			ArrivalMS:  int64(i/wave)*waveMS + int64(r.intn(int(waveMS/2)+1)),
			Network:    sh.network,
			Batch:      sh.batch,
			Manager:    sh.manager,
			Priority:   r.intn(10),
			Iterations: 1 + it.next(),
		}
		if sh.schedule != "" {
			s, err := workload.ParseSchedule(sh.schedule)
			if err != nil {
				panic("benchmark: bad built-in schedule: " + err.Error())
			}
			tj.Batch, tj.BatchSchedule = s.Max(), s
		}
		if g := sizes[size.next()]; g > 1 {
			tj.GPUs = g
		}
		jobs = append(jobs, tj)
	}
	// Jitter can reorder neighbours; traces are replayed in arrival
	// order, ties broken by id.
	sort.SliceStable(jobs, func(a, b int) bool { return jobs[a].ArrivalMS < jobs[b].ArrivalMS })
	return jobs
}

func genCluster(sp cluSpec, seed uint64) (gang, co []workload.TraceJob) {
	gang = genTrace(newRNG(seed, "gang"), "g", sp.gangJobs, gangShapes(), gangSizes, sp.gangWave, sp.gangWaveMS, 6)
	co = genTrace(newRNG(seed, "cotenant"), "c", sp.coJobs, coShapes, []int{1}, sp.coWave, sp.coWaveMS, 4)
	return gang, co
}

// ---- serve ----

type serveSpec struct {
	devices       int
	spacingMS     int64
	snapshotEvery int
	prefill       int
	closedJobs    int
	tenants       int
	rate          float64
	readEvery     int
	tailPct       float64
	setupReps     int
	twinJobs      int
}

func (sp serveSpec) validate() error {
	if sp.devices < 1 || sp.spacingMS < 1 || sp.snapshotEvery < 1 || sp.prefill < 1 || sp.closedJobs < 1 || sp.tenants < 1 ||
		sp.rate <= 0 || sp.readEvery < 1 || sp.setupReps < 1 || sp.twinJobs < 1 ||
		!isPct(sp.tailPct) {
		return fmt.Errorf("serve parameters out of range")
	}
	return nil
}

// reqGen deals submit requests: seeded tenants and templates, ids
// prefixed so each phase's jobs are distinct.
type reqGen struct {
	tpl     []workload.TraceJob
	tplDeck *deck
	tenDeck *deck
}

func newReqGen(seed uint64, stream string, tenants int) *reqGen {
	r := newRNG(seed, "serve/"+stream)
	tpl := serve.DefaultTemplates()
	return &reqGen{tpl: tpl, tplDeck: newDeck(r, len(tpl)), tenDeck: newDeck(r, tenants)}
}

func (g *reqGen) next(id string) serve.SubmitRequest {
	t := g.tpl[g.tplDeck.next()]
	req := serve.SubmitRequest{
		Tenant:     fmt.Sprintf("t%02d", g.tenDeck.next()),
		ID:         id,
		Network:    t.Network,
		Batch:      t.Batch,
		Manager:    t.Manager,
		Priority:   t.Priority,
		Iterations: t.Iterations,
	}
	if len(t.BatchSchedule) > 1 {
		req.Schedule, req.Batch = t.BatchSchedule.String(), 0
	}
	return req
}

func (g *reqGen) take(prefix string, n int) []serve.SubmitRequest {
	out := make([]serve.SubmitRequest, n)
	for i := range out {
		out[i] = g.next(fmt.Sprintf("%s%05d", prefix, i))
	}
	return out
}

// inputsDigest hashes every workload's generated inputs at seed 0, so a
// change to a generator or its tables shows as a changed digest that
// BENCHMARK.json must record.
func inputsDigest(s *specs) (string, error) {
	g, c := genCluster(s.clu, 0)
	h := sha256.New()
	if err := json.NewEncoder(h).Encode([]any{genCapacity(s.cap, 0), workload.FormatTrace(g), workload.FormatTrace(c),
		newReqGen(0, "prefill", s.srv.tenants).take("h", 64)}); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
