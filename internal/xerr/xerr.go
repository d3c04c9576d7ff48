// Package xerr is the serving layer's structured error core: stable
// machine-readable codes, a Failure/Defect/Interrupt taxonomy, and
// errors.Is/As-clean wrapping — with zero policy baked in. Transport
// adapters (error→HTTP status, error→metrics outcome label) live in
// adapters.go on top of the classification, never inside it.
//
// The taxonomy:
//
//   - A Failure is an expected domain or infrastructure error (a query that
//     does not validate, a pool that is shutting down, admission control
//     shedding load). Failures carry no stack — they are not bugs.
//   - A Defect is a programmer bug surfacing at runtime, typically a
//     recovered panic. Defects keep the stack captured at the defect site,
//     because the stack is the debugging artifact.
//   - An Interrupt wraps a context error: the caller cancelled or the
//     deadline expired. Interrupts unwrap to context.Canceled or
//     context.DeadlineExceeded, so existing errors.Is checks keep working.
//
// Classification is non-invasive: CodeOf/KindOf/StackOf walk the unwrap
// graph (including multi-unwrap joins) looking for the small Coder/Kinder/
// Stacker interfaces, fall back to the context sentinels, and classify
// everything else as INTERNAL — an unrecognized error is the server's
// fault until proven otherwise, never the client's.
package xerr

import (
	"context"
	"errors"
	"fmt"
)

// Code is a stable machine-readable error code, wire-safe by design: the
// values never change meaning, so shards, retry layers and dashboards can
// switch on them across versions.
type Code string

// The code set. It deliberately stays small — every serving-layer error
// maps onto exactly one of these.
const (
	// InvalidArgument: the request itself is malformed or fails validation
	// (oql parse/validate errors). The client must change the request.
	InvalidArgument Code = "INVALID_ARGUMENT"
	// NotFound: the request names an entity that does not exist (e.g. an
	// anchor vertex name with no vertex).
	NotFound Code = "NOT_FOUND"
	// ResourceExhausted: admission control shed the request; retry with
	// backoff.
	ResourceExhausted Code = "RESOURCE_EXHAUSTED"
	// DeadlineExceeded: the per-request deadline expired before completion.
	DeadlineExceeded Code = "DEADLINE_EXCEEDED"
	// Canceled: the caller went away; nobody is waiting for an answer.
	Canceled Code = "CANCELED"
	// Unavailable: the serving process cannot take requests right now
	// (draining/closed pool); retry against another replica.
	Unavailable Code = "UNAVAILABLE"
	// Internal: an invariant broke server-side — recovered panics,
	// materializer I/O failures, persist corruption, and every error nothing
	// else claims.
	Internal Code = "INTERNAL"
)

// Kind is the taxonomy axis orthogonal to Code: what sort of thing went
// wrong, which decides whether a stack is attached and how operators triage.
type Kind uint8

const (
	// KindFailure is an expected domain/infra error; no stack.
	KindFailure Kind = iota
	// KindDefect is a programmer bug (recovered panic); keeps its stack.
	KindDefect
	// KindInterrupt wraps a context error (cancellation or deadline).
	KindInterrupt
)

// String names the kind for logs and labels.
func (k Kind) String() string {
	switch k {
	case KindDefect:
		return "defect"
	case KindInterrupt:
		return "interrupt"
	default:
		return "failure"
	}
}

// Coder lets any error type declare its code without wrapping — foreign
// types (oql.SyntaxError, core.PanicError) participate in classification by
// implementing it. *Error implements it too.
type Coder interface{ ErrorCode() Code }

// Kinder is the analogous declaration for the taxonomy kind.
type Kinder interface{ ErrorKind() Kind }

// Stacker surfaces a defect's captured stack.
type Stacker interface{ ErrorStack() string }

// requestIDer surfaces the per-request correlation ID an error carries.
type requestIDer interface{ RequestID() string }

// Error is the structured error. The message lives in the wrapped cause
// (err, never nil), so Error() and the unwrap chain behave exactly like the
// fmt.Errorf chains this package replaces — migration changes an error's
// classification, never its text.
type Error struct {
	code      Code
	kind      Kind
	err       error // message-bearing cause; never nil
	requestID string
}

// Error returns the message of the wrapped cause.
func (e *Error) Error() string { return e.err.Error() }

// Unwrap exposes the cause to errors.Is/As.
func (e *Error) Unwrap() error { return e.err }

// ErrorCode returns the stable machine-readable code.
func (e *Error) ErrorCode() Code { return e.code }

// ErrorKind returns the taxonomy kind.
func (e *Error) ErrorKind() Kind { return e.kind }

// RequestID returns the per-request correlation ID attached via
// WithRequestID ("" when none).
func (e *Error) RequestID() string { return e.requestID }

// Format renders the error; %+v appends the kind, code, request ID and (for
// defects) the stack for diagnostics, while %v/%s stay concise.
func (e *Error) Format(f fmt.State, verb rune) {
	if verb == 'v' && f.Flag('+') {
		fmt.Fprintf(f, "%s [%s/%s]", e.err.Error(), e.kind, e.code)
		if e.requestID != "" {
			fmt.Fprintf(f, " rid=%s", e.requestID)
		}
		// A wrapper (e.g. WithRequestID) holds no stack of its own; render
		// the defect's stack from anywhere in the chain.
		if st := StackOf(e); st != "" {
			fmt.Fprintf(f, "\n%s", st)
		}
		return
	}
	fmt.Fprintf(f, "%s", e.err.Error())
}

// New returns a Failure with the given code and message.
func New(code Code, msg string) *Error {
	return &Error{code: code, kind: KindFailure, err: errors.New(msg)}
}

// Newf returns a Failure with a fmt.Errorf-built message; %w operands wrap
// into the chain and stay visible to errors.Is/As.
func Newf(code Code, format string, args ...any) *Error {
	return &Error{code: code, kind: KindFailure, err: fmt.Errorf(format, args...)}
}

// Wrap classifies an existing error under code without changing its message
// or its unwrap chain. A nil err returns nil.
func Wrap(code Code, err error) *Error {
	if err == nil {
		return nil
	}
	return &Error{code: code, kind: KindOf(err), err: err}
}

// Interrupt wraps a context error so it classifies as CANCELED or
// DEADLINE_EXCEEDED while still unwrapping to the context sentinel. A cause
// that is neither classifies INTERNAL (a mislabeled interrupt is a bug).
func Interrupt(cause error) *Error {
	code := Internal
	switch {
	case errors.Is(cause, context.Canceled):
		code = Canceled
	case errors.Is(cause, context.DeadlineExceeded):
		code = DeadlineExceeded
	}
	return &Error{code: code, kind: KindInterrupt, err: cause}
}

// FromWire reconstructs a classified error from the wire-safe triple a
// shard ships across a network boundary (message text, code, kind). The
// reconstruction preserves classification exactly — CodeOf and KindOf on
// the result return the inputs — and a cause that stood for a context
// sentinel on the far side keeps answering errors.Is against that sentinel,
// so coordinator-side deadline checks treat a remote expiry like a local
// one. Stacks do not cross the wire: a remote defect classifies as
// KindDefect but StackOf returns "" (the remote's own log has the frames).
// An empty code classifies INTERNAL, mirroring CodeOf's default.
func FromWire(code Code, kind Kind, msg string) *Error {
	if code == "" {
		code = Internal
	}
	var cause error
	switch code {
	case Canceled:
		cause = &wireCause{msg: msg, is: context.Canceled}
	case DeadlineExceeded:
		cause = &wireCause{msg: msg, is: context.DeadlineExceeded}
	default:
		cause = errors.New(msg)
	}
	return &Error{code: code, kind: kind, err: cause}
}

// wireCause is a deserialized error cause that keeps errors.Is working
// against the context sentinel it stood for on the far side of the wire.
type wireCause struct {
	msg string
	is  error
}

func (w *wireCause) Error() string        { return w.msg }
func (w *wireCause) Is(target error) bool { return target == w.is }

// WithRequestID returns err wrapped with a per-request correlation ID,
// preserving classification and the full unwrap chain (errors.Is against
// the original error and any sentinel it wraps keeps working). nil err or
// empty id return err unchanged.
func WithRequestID(err error, id string) error {
	if err == nil || id == "" {
		return err
	}
	return &Error{code: CodeOf(err), kind: KindOf(err), err: err, requestID: id}
}

// CodeOf classifies an error: the first Coder in the unwrap graph wins,
// then the context sentinels (CANCELED, DEADLINE_EXCEEDED), and every
// unclaimed non-nil error is INTERNAL — never the client's fault by
// default. CodeOf(nil) is "".
func CodeOf(err error) Code {
	if err == nil {
		return ""
	}
	var c Coder
	if errors.As(err, &c) {
		return c.ErrorCode()
	}
	switch {
	case errors.Is(err, context.Canceled):
		return Canceled
	case errors.Is(err, context.DeadlineExceeded):
		return DeadlineExceeded
	}
	return Internal
}

// KindOf classifies an error's taxonomy kind: the first Kinder wins, context
// errors are interrupts, everything else is a failure.
func KindOf(err error) Kind {
	if err == nil {
		return KindFailure
	}
	var k Kinder
	if errors.As(err, &k) {
		return k.ErrorKind()
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return KindInterrupt
	}
	return KindFailure
}

// StackOf returns the first non-empty captured stack in the unwrap graph
// ("" when the error carries none — i.e. it is not a defect). Unlike a
// plain errors.As, it keeps walking past Stackers with empty stacks, so a
// request-ID wrapper around a recovered panic still yields the panic's
// stack.
func StackOf(err error) string {
	for err != nil {
		if s, ok := err.(Stacker); ok {
			if st := s.ErrorStack(); st != "" {
				return st
			}
		}
		switch u := err.(type) {
		case interface{ Unwrap() error }:
			err = u.Unwrap()
		case interface{ Unwrap() []error }:
			for _, e := range u.Unwrap() {
				if st := StackOf(e); st != "" {
					return st
				}
			}
			return ""
		default:
			return ""
		}
	}
	return ""
}

// RequestIDOf returns the per-request correlation ID attached to err (""
// when none).
func RequestIDOf(err error) string {
	var r requestIDer
	if errors.As(err, &r) {
		return r.RequestID()
	}
	return ""
}
