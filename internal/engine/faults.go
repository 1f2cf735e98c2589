// Fault injection for the simulated appliance. A FaultPlan is a small,
// deterministic chaos schedule: rules addressed per step / node /
// move-kind / operation that make node tasks fail (once or N times), run
// slow, or corrupt a DMS delivery. The engine consults the plan at every
// node-level operation of a step (per-node query, temp-table create, DMS
// delivery), so the retry layer and the difftest chaos mode can perturb
// exactly the paths the paper treats as restartable units.
package engine

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"pdwqo/internal/cost"
)

// FaultKind is what an injected fault does.
type FaultKind uint8

// Fault kinds.
const (
	// FaultFail makes the matched operation return an injected error.
	FaultFail FaultKind = iota
	// FaultSlow delays the matched operation by Fault.Delay (the delay
	// respects context cancellation, so a step timeout still fires).
	FaultSlow
	// FaultCorrupt garbles a DMS delivery's staged rows and reports a
	// verification failure; at non-delivery sites it behaves like
	// FaultFail. The corrupted rows are staged, never published.
	FaultCorrupt
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultFail:
		return "fail"
	case FaultSlow:
		return "slow"
	case FaultCorrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("FaultKind(%d)", uint8(k))
	}
}

// FaultOp is the engine operation a fault rule attaches to.
type FaultOp uint8

// Injection sites.
const (
	// OpAny matches every site.
	OpAny FaultOp = iota
	// OpQuery is the per-node execution of a step's SQL.
	OpQuery
	// OpCreate is the per-node creation of a destination temp table.
	OpCreate
	// OpDeliver is the per-node DMS delivery of routed rows.
	OpDeliver
)

// String names the site.
func (o FaultOp) String() string {
	switch o {
	case OpAny:
		return "any"
	case OpQuery:
		return "query"
	case OpCreate:
		return "create"
	case OpDeliver:
		return "deliver"
	default:
		return fmt.Sprintf("FaultOp(%d)", uint8(o))
	}
}

// Any is the wildcard for Fault.Step, Fault.Node and Fault.Move. (It is
// far outside the valid ranges: node IDs start at -1 for the control
// node, step IDs at 0, and move kinds at 0.)
const Any = -(1 << 30)

// Fault is one injection rule. Zero values of Step/Node/Move address step
// 0 / node 0 / SHUFFLE; use Any for wildcards.
type Fault struct {
	Kind FaultKind
	// Op restricts the rule to one operation site; OpAny matches all.
	Op FaultOp
	// Step matches the DSQL step ID.
	Step int
	// Node matches the node ID (-1 is the control node).
	Node int
	// Move matches int(cost.MoveKind); non-move sites only match Any.
	Move int
	// Times is how often the rule fires before it is spent; <= 0 means
	// once.
	Times int
	// Delay is the added latency for FaultSlow rules.
	Delay time.Duration
}

// String renders the rule in ParseFaultSpec syntax.
func (f Fault) String() string {
	parts := []string{f.Kind.String()}
	add := func(k, v string) { parts = append(parts, k+"="+v) }
	if f.Op != OpAny {
		add("op", f.Op.String())
	}
	if f.Step != Any {
		add("step", strconv.Itoa(f.Step))
	}
	if f.Node != Any {
		add("node", strconv.Itoa(f.Node))
	}
	if f.Move != Any {
		add("move", cost.MoveKind(f.Move).String())
	}
	if f.Times > 1 {
		add("times", strconv.Itoa(f.Times))
	}
	if f.Delay > 0 {
		add("delay", f.Delay.String())
	}
	if len(parts) == 1 {
		return parts[0]
	}
	return parts[0] + ":" + strings.Join(parts[1:], ",")
}

// FaultPlan is a concurrency-safe set of fault rules with per-rule firing
// budgets. The same plan value can be consulted from every worker
// goroutine of a step's fan-out.
type FaultPlan struct {
	mu    sync.Mutex
	rules []*faultState
	fired int64
}

type faultState struct {
	Fault
	left int
}

// NewFaultPlan builds a plan from rules. Rules fire in declaration order:
// the first matching rule with budget left claims the site.
func NewFaultPlan(faults ...Fault) *FaultPlan {
	p := &FaultPlan{}
	for _, f := range faults {
		times := f.Times
		if times <= 0 {
			times = 1
		}
		p.rules = append(p.rules, &faultState{Fault: f, left: times})
	}
	return p
}

// Rules returns a copy of the plan's rules (without remaining budgets).
func (p *FaultPlan) Rules() []Fault {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Fault, len(p.rules))
	for i, r := range p.rules {
		out[i] = r.Fault
	}
	return out
}

// Fired returns how many faults the plan has injected so far.
func (p *FaultPlan) Fired() int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fired
}

// Reset restores every rule's firing budget, so one plan can perturb a
// sequence of runs identically.
func (p *FaultPlan) Reset() {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fired = 0
	for _, r := range p.rules {
		times := r.Times
		if times <= 0 {
			times = 1
		}
		r.left = times
	}
}

// match claims the first applicable rule for the site, decrementing its
// budget under the lock. step is the DSQL step ID, move is
// int(cost.MoveKind) (Any for non-move sites).
func (p *FaultPlan) match(op FaultOp, step, node, move int) (Fault, bool) {
	if p == nil {
		return Fault{}, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range p.rules {
		if r.left <= 0 {
			continue
		}
		if r.Op != OpAny && r.Op != op {
			continue
		}
		if r.Step != Any && r.Step != step {
			continue
		}
		if r.Node != Any && r.Node != node {
			continue
		}
		if r.Move != Any && r.Move != move {
			continue
		}
		r.left--
		p.fired++
		return r.Fault, true
	}
	return Fault{}, false
}

// RandomFaultPlan draws a small chaos schedule deterministically from
// seed: 1–3 rules over the given step-ID and compute-node ranges, mixing
// fail / slow / corrupt kinds, wildcard and pinned addresses, and firing
// budgets of 1–3. Slow delays stay in the sub-millisecond range so
// seeded chaos sweeps don't dominate test wall clock.
func RandomFaultPlan(seed int64, steps, nodes int) *FaultPlan {
	r := rand.New(rand.NewSource(seed))
	if steps < 1 {
		steps = 1
	}
	if nodes < 1 {
		nodes = 1
	}
	n := 1 + r.Intn(3)
	faults := make([]Fault, n)
	for i := range faults {
		f := Fault{Op: OpAny, Step: Any, Node: Any, Move: Any}
		switch r.Intn(4) {
		case 0, 1:
			f.Kind = FaultFail
		case 2:
			f.Kind = FaultSlow
			f.Delay = time.Duration(100+r.Intn(400)) * time.Microsecond
		default:
			f.Kind = FaultCorrupt
		}
		switch r.Intn(3) {
		case 0:
			f.Op = OpQuery
		case 1:
			f.Op = OpDeliver
		default:
			f.Op = OpAny
		}
		if r.Intn(2) == 0 {
			f.Step = r.Intn(steps)
		}
		if r.Intn(3) == 0 {
			f.Node = r.Intn(nodes)
		}
		f.Times = 1 + r.Intn(3)
		faults[i] = f
	}
	return NewFaultPlan(faults...)
}

// ParseFaultSpec parses the -fault flag syntax shared by pdwcli and
// pdwbench: semicolon-separated rules, each
//
//	kind[:key=value,...]
//
// with kind ∈ {fail, slow, corrupt} and keys op (query|create|deliver),
// step, node, move (shuffle|partition-move|control-node-move|
// broadcast|trim|replicated-broadcast|remote-copy), times, delay (a Go
// duration). Unaddressed fields are wildcards. The alternative form
//
//	seed=N[:steps=S,nodes=M]
//
// draws a RandomFaultPlan. Examples:
//
//	fail:step=1,node=2,times=3
//	slow:op=deliver,move=shuffle,delay=5ms;corrupt:step=0
//	seed=42
func ParseFaultSpec(spec string) (*FaultPlan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	if rest, ok := strings.CutPrefix(spec, "seed="); ok {
		return parseSeedSpec(rest)
	}
	var faults []Fault
	for _, rule := range strings.Split(spec, ";") {
		rule = strings.TrimSpace(rule)
		if rule == "" {
			continue
		}
		f, err := parseFaultRule(rule)
		if err != nil {
			return nil, err
		}
		faults = append(faults, f)
	}
	if len(faults) == 0 {
		return nil, fmt.Errorf("engine: empty fault spec %q", spec)
	}
	return NewFaultPlan(faults...), nil
}

func parseSeedSpec(rest string) (*FaultPlan, error) {
	head, tail, _ := strings.Cut(rest, ":")
	seed, err := strconv.ParseInt(strings.TrimSpace(head), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("engine: fault seed %q: %w", head, err)
	}
	steps, nodes := 4, 8
	if tail != "" {
		for _, kv := range strings.Split(tail, ",") {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("engine: fault seed option %q: want key=value", kv)
			}
			n, err := strconv.Atoi(strings.TrimSpace(v))
			if err != nil {
				return nil, fmt.Errorf("engine: fault seed option %q: %w", kv, err)
			}
			switch strings.TrimSpace(k) {
			case "steps":
				steps = n
			case "nodes":
				nodes = n
			default:
				return nil, fmt.Errorf("engine: unknown fault seed option %q", k)
			}
		}
	}
	return RandomFaultPlan(seed, steps, nodes), nil
}

func parseFaultRule(rule string) (Fault, error) {
	f := Fault{Op: OpAny, Step: Any, Node: Any, Move: Any}
	kind, opts, _ := strings.Cut(rule, ":")
	switch strings.TrimSpace(kind) {
	case "fail":
		f.Kind = FaultFail
	case "slow":
		f.Kind = FaultSlow
		f.Delay = time.Millisecond
	case "corrupt":
		f.Kind = FaultCorrupt
	default:
		return f, fmt.Errorf("engine: unknown fault kind %q (want fail, slow or corrupt)", kind)
	}
	if opts == "" {
		return f, nil
	}
	for _, kv := range strings.Split(opts, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return f, fmt.Errorf("engine: fault option %q: want key=value", kv)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		switch k {
		case "op":
			op, err := parseFaultOp(v)
			if err != nil {
				return f, err
			}
			f.Op = op
		case "step":
			n, err := strconv.Atoi(v)
			if err != nil {
				return f, fmt.Errorf("engine: fault step %q: %w", v, err)
			}
			f.Step = n
		case "node":
			n, err := strconv.Atoi(v)
			if err != nil {
				return f, fmt.Errorf("engine: fault node %q: %w", v, err)
			}
			f.Node = n
		case "move":
			m, err := parseMoveKind(v)
			if err != nil {
				return f, err
			}
			f.Move = int(m)
		case "times":
			n, err := strconv.Atoi(v)
			if err != nil {
				return f, fmt.Errorf("engine: fault times %q: %w", v, err)
			}
			f.Times = n
		case "delay":
			d, err := time.ParseDuration(v)
			if err != nil {
				return f, fmt.Errorf("engine: fault delay %q: %w", v, err)
			}
			f.Delay = d
		default:
			return f, fmt.Errorf("engine: unknown fault option %q", k)
		}
	}
	return f, nil
}

func parseFaultOp(s string) (FaultOp, error) {
	switch s {
	case "any":
		return OpAny, nil
	case "query":
		return OpQuery, nil
	case "create":
		return OpCreate, nil
	case "deliver":
		return OpDeliver, nil
	}
	return OpAny, fmt.Errorf("engine: unknown fault op %q", s)
}

func parseMoveKind(s string) (cost.MoveKind, error) {
	for k := cost.Shuffle; k <= cost.RemoteCopySingle; k++ {
		if strings.EqualFold(k.String(), s) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("engine: unknown move kind %q", s)
}

// injectFault consults the run's plan at one operation site and applies
// the matched rule. Slow rules delay (respecting cancellation — a step
// timeout still fires through a slow fault) and then let the operation
// proceed; fail rules return an injected StepError; corrupt rules return
// a corrupt-delivery StepError, which delivery sites handle specially
// (staging the garbled payload first) and other sites treat as a plain
// transient failure.
func (r *run) injectFault(ctx context.Context, op FaultOp, step, node, move int) (Fault, *StepError) {
	f, ok := r.cfg.Faults.match(op, step, node, move)
	if !ok {
		return Fault{}, nil
	}
	r.faults.Add(1)
	r.a.Metrics.addFault()
	switch f.Kind {
	case FaultSlow:
		if err := sleepCtx(ctx, f.Delay); err != nil {
			return f, stepError(step, node, ErrKindCancelled, err)
		}
		return f, nil
	case FaultCorrupt:
		return f, stepError(step, node, ErrKindCorrupt,
			fmt.Errorf("injected corruption at %s", op))
	default:
		return f, stepError(step, node, ErrKindInjected,
			fmt.Errorf("injected failure at %s", op))
	}
}
