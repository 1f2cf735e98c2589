package engine

import (
	"errors"
	"fmt"
)

// ErrorKind classifies why a DSQL step failed. It is the taxonomy the
// retry layer keys its decisions off: injected faults, corrupt deliveries
// and timeouts are transient (an idempotent step may be retried after
// cleaning up its partial temp table), while execution errors are
// deterministic — the same SQL over the same rows fails the same way, so
// retrying is pointless.
type ErrorKind uint8

// Step failure kinds.
const (
	// ErrKindExec is a node-local compilation or evaluation failure
	// (unknown table, type mismatch, division by zero, ...).
	ErrKindExec ErrorKind = iota
	// ErrKindInjected is a failure produced by the fault-injection plan.
	ErrKindInjected
	// ErrKindCorrupt is a DMS delivery whose payload failed verification;
	// the staged rows are discarded, never published.
	ErrKindCorrupt
	// ErrKindTimeout is a step that exceeded ExecConfig.StepTimeout.
	ErrKindTimeout
	// ErrKindCancelled is a caller-cancelled execution (context cancel).
	ErrKindCancelled
)

// String names the kind for error text and logs.
func (k ErrorKind) String() string {
	switch k {
	case ErrKindExec:
		return "exec"
	case ErrKindInjected:
		return "injected-fault"
	case ErrKindCorrupt:
		return "corrupt-delivery"
	case ErrKindTimeout:
		return "timeout"
	case ErrKindCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("ErrorKind(%d)", uint8(k))
	}
}

// Sentinel errors for errors.Is matching without reaching into the
// StepError struct.
var (
	// ErrFaultInjected matches StepErrors caused by an injected fault.
	ErrFaultInjected = errors.New("engine: injected fault")
	// ErrCorruptDelivery matches StepErrors from a corrupted DMS payload.
	ErrCorruptDelivery = errors.New("engine: corrupt delivery")
	// ErrStepTimeout matches StepErrors from a per-step timeout.
	ErrStepTimeout = errors.New("engine: step timeout")
)

// StepError is the typed failure of one DSQL step: which step, on which
// node (NoNode when the failure is not node-attributable), on which
// attempt (0 = first execution, n = nth retry), and why. It supports
// errors.Is against the sentinel errors above and errors.As against
// *StepError, and unwraps to the underlying cause.
type StepError struct {
	Step    int
	Node    int
	Attempt int
	Kind    ErrorKind
	Err     error
}

// NoNode marks a StepError not attributable to a single node.
const NoNode = -(1 << 29)

// Error renders the full failure context.
func (e *StepError) Error() string {
	where := ""
	if e.Node != NoNode {
		where = fmt.Sprintf(" node %d,", e.Node)
	}
	return fmt.Sprintf("engine: step %d (%s,%s attempt %d): %v",
		e.Step, e.Kind, where, e.Attempt, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As chains.
func (e *StepError) Unwrap() error { return e.Err }

// Is matches the kind-specific sentinel errors.
func (e *StepError) Is(target error) bool {
	switch target {
	case ErrFaultInjected:
		return e.Kind == ErrKindInjected
	case ErrCorruptDelivery:
		return e.Kind == ErrKindCorrupt
	case ErrStepTimeout:
		return e.Kind == ErrKindTimeout
	}
	return false
}

// Retryable reports whether the failure is transient: retrying an
// idempotent step may succeed. Exec errors are deterministic and
// cancellation is the caller's decision, so neither retries.
func (e *StepError) Retryable() bool {
	switch e.Kind {
	case ErrKindInjected, ErrKindCorrupt, ErrKindTimeout:
		return true
	}
	return false
}

// stepError builds a node-attributed StepError; the retry loop stamps the
// attempt number when the error surfaces.
func stepError(step, node int, kind ErrorKind, err error) *StepError {
	return &StepError{Step: step, Node: node, Kind: kind, Err: err}
}
