package machine

import "fmt"

// Backend selects how a simulator executes its guest program. Both
// backends implement identical architectural semantics — same results,
// same Stats, same traced event streams — and the equivalence is pinned by
// internal/conformance's differential sweeps. They differ only in host
// dispatch cost:
//
//	BackendInterp   — machine.Step on raw isa.Instruction values: operand
//	                  widths, branch targets and op classes re-derived
//	                  every executed cycle. The reference implementation.
//	BackendCompiled — machine.Compile threaded code: one closure per
//	                  instruction specialized to its operands (no per-op
//	                  switch), and on the uni-processor a basic-block run
//	                  mode with superinstruction fusion and batched cycle
//	                  accounting.
//
// The spatial simulator takes no backend: its composed groups always run
// the compiled per-op chain, which TestCompiledOpMatchesStep and
// FuzzCompile pin against Step.
type Backend uint8

const (
	// BackendDefault resolves to BackendCompiled: the compiled backend is
	// the default now that the differential harness pins its equivalence.
	BackendDefault Backend = iota
	// BackendInterp is the raw-Step reference interpreter.
	BackendInterp
	// BackendCompiled is the closure-threaded compiled backend.
	BackendCompiled
)

// Resolve maps BackendDefault to the concrete default backend.
func (b Backend) Resolve() Backend {
	if b == BackendDefault {
		return BackendCompiled
	}
	return b
}

// String returns the flag spelling of the backend.
func (b Backend) String() string {
	switch b {
	case BackendDefault:
		return "default"
	case BackendInterp:
		return "interp"
	case BackendCompiled:
		return "compiled"
	}
	return fmt.Sprintf("Backend(%d)", uint8(b))
}

// ParseBackend parses a -backend flag value. The empty string selects
// BackendDefault so optional request fields and unset flags fall through
// to the pinned default.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "":
		return BackendDefault, nil
	case "interp":
		return BackendInterp, nil
	case "compiled":
		return BackendCompiled, nil
	}
	return BackendDefault, fmt.Errorf("machine: unknown backend %q (want interp or compiled)", s)
}

// Backends lists the concrete backends, in ablation order, for flag help
// and differential sweeps.
func Backends() []Backend {
	return []Backend{BackendInterp, BackendCompiled}
}
