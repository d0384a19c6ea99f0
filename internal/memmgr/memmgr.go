// Package memmgr decomposes the SuperNeurons executor into its
// memory-management subsystems. The paper's contribution is a policy —
// Liveness Analysis + Unified Tensor Pool + Cost-Aware Recomputation —
// and the baselines it is measured against (the naive keep-everything
// baseline, vDNN's offload-everything strategy, the framework models)
// are the same techniques with some of them switched off. So there is
// one wiring of four subsystems over the shared Runtime state, and a
// policy is only the configuration those subsystems read:
//
//   - StdResidency: tensor placement — pinning reads, materializing
//     writes, allocation under pressure (evict/reclaim) and frees.
//   - StdOffload: the Unified Tensor Pool's D2H/H2D machinery —
//     eager offloads, harvest of completed transfers, prefetch and
//     on-demand fetch, and the host-pool spill order.
//   - StdReplayer: recomputation — reconstructing dropped forward
//     tensors segment by segment during back-propagation.
//   - StdTuner: convolution-workspace policy — picking the fastest
//     algorithm that fits the remaining budget, optionally with
//     cudnnFind-style autotuning.
//
// NewSubsystems wires them; the step loop in internal/core is pure
// orchestration over them and owns no policy. A MemoryManager is a
// name plus the Normalize that resolves its technique flags, selected
// through Config.Manager ("" runs the flag-driven manager that
// interprets the Config technique flags literally, which is also how
// the paper's ablation studies toggle individual mechanisms).
package memmgr

import "sort"

// Subsystems is the one memory-manager wiring every manager runs. The
// references between the parts are mutual — fetches allocate through
// residency, reclaims harvest through the offload engine, replays do
// both — so the value must not be copied once wired.
type Subsystems struct {
	Residency StdResidency
	Offload   StdOffload
	Replay    StdReplayer
	Tuner     StdTuner
}

// NewSubsystems wires the standard subsystems over rt. Which
// mechanisms engage is decided by the normalized rt.Cfg flags, so this
// wiring serves every named manager and every flag-driven ablation.
func NewSubsystems(rt *Runtime) *Subsystems {
	s := &Subsystems{}
	s.Residency = StdResidency{rt: rt, off: &s.Offload}
	s.Offload = StdOffload{rt: rt, resid: &s.Residency}
	s.Replay = StdReplayer{rt: rt, resid: &s.Residency, off: &s.Offload}
	s.Tuner = StdTuner{rt: rt}
	return s
}

// MemoryManager is a named memory-management policy.
type MemoryManager struct {
	name      string
	normalize func(Config) Config
}

// Name is the manager's Config.Manager key.
func (m *MemoryManager) Name() string { return m.name }

// Normalize resolves the effective configuration the policy imposes:
// named managers own the technique flags and override them, while
// capacity and instrumentation fields (device, pool sizes, iterations,
// tracing) pass through.
func (m *MemoryManager) Normalize(cfg Config) Config { return m.normalize(cfg) }

// managers is the fixed manager table.
var managers = []*MemoryManager{
	// The flag-driven manager (Config.Manager == ""): it interprets
	// the Config technique flags literally, which is how the paper's
	// ablation studies toggle individual mechanisms.
	{name: "custom", normalize: func(cfg Config) Config { return cfg }},
	// The paper's full runtime.
	{name: "superneurons", normalize: policyOf(SuperNeuronsConfig)},
	// The offload-everything baseline.
	{name: "vdnn", normalize: policyOf(VDNNConfig)},
	// The naive keep-everything baseline (peak = Σ l_i^f + Σ l_i^b).
	{name: "naive", normalize: policyOf(BaselineConfig)},
	// The framework comparison models.
	{name: "caffe", normalize: policyOf(CaffeConfig)},
	{name: "torch", normalize: policyOf(TorchConfig)},
	{name: "mxnet", normalize: policyOf(MXNetConfig)},
	{name: "tensorflow", normalize: policyOf(TensorFlowConfig)},
	{name: "tensorflow-swap", normalize: policyOf(TensorFlowSwapConfig)},
}

// Lookup resolves a manager by name. The empty name resolves to the
// flag-driven "custom" manager.
func Lookup(name string) (*MemoryManager, bool) {
	if name == "" {
		name = "custom"
	}
	for _, m := range managers {
		if m.name == name {
			return m, true
		}
	}
	return nil, false
}

// Names returns the manager names, sorted.
func Names() []string {
	out := make([]string, len(managers))
	for i, m := range managers {
		out[i] = m.name
	}
	sort.Strings(out)
	return out
}
