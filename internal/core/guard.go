package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"netout/internal/xerr"
)

// Panic isolation for the serving layers. A production pool serving analyst
// traffic cannot let one hostile query take the process down. Every goroutine
// that runs a unit of work (a ServePool caller's query, an ExecuteBatch
// goroutine's, a query's candidate ranges) therefore converts panics into
// *PanicError replies at its unit-of-work boundary and keeps running.

// PanicError is a panic recovered by the serving layers and converted
// into a per-query (or per-range) error. Value is the original panic value;
// Stack is the goroutine stack captured at the recovery point, preserved so
// the bug stays debuggable after isolation.
type PanicError struct {
	Value any
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("core: recovered panic: %v", e.Value)
}

// ErrorCode classifies a recovered panic as INTERNAL in the serving
// taxonomy (xerr.Coder): a panic is always the server's bug, never the
// client's request.
func (e *PanicError) ErrorCode() xerr.Code { return xerr.Internal }

// ErrorKind marks a recovered panic as a Defect (xerr.Kinder): a
// programmer bug that keeps its stack.
func (e *PanicError) ErrorKind() xerr.Kind { return xerr.KindDefect }

// ErrorStack surfaces the stack captured at the recovery point
// (xerr.Stacker), so xerr.StackOf finds it through any wrapping.
func (e *PanicError) ErrorStack() string { return e.Stack }

func newPanicError(v any) *PanicError {
	if pe, ok := v.(*PanicError); ok {
		return pe // re-raised: keep the stack from the original panic site
	}
	return &PanicError{Value: v, Stack: string(debug.Stack())}
}

// IsPanicError reports whether err wraps a recovered panic.
func IsPanicError(err error) bool {
	var pe *PanicError
	return errors.As(err, &pe)
}

// recoverAsError converts an in-flight panic into a *PanicError assigned to
// *errp. Use as `defer recoverAsError(&err)` at the top of a worker's unit
// of work; the worker then replies with the error like any other failure and
// stays alive for the next job.
func recoverAsError(errp *error) {
	if r := recover(); r != nil {
		*errp = newPanicError(r)
	}
}

// degradable reports whether a mid-execution error is an expired deadline
// that graceful degradation may convert into a partial result. Cancellation
// is deliberately excluded: a cancelled caller is gone and wants no answer,
// partial or otherwise.
func degradable(err error) bool {
	return errors.Is(err, context.DeadlineExceeded)
}
