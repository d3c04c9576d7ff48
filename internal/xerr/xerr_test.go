package xerr

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

func TestNewClassification(t *testing.T) {
	err := New(InvalidArgument, "bad query")
	if err.Error() != "bad query" {
		t.Fatalf("Error() = %q", err.Error())
	}
	if CodeOf(err) != InvalidArgument {
		t.Fatalf("CodeOf = %s", CodeOf(err))
	}
	if KindOf(err) != KindFailure {
		t.Fatalf("KindOf = %s", KindOf(err))
	}
	if StackOf(err) != "" {
		t.Fatal("a failure must not carry a stack")
	}
}

func TestNewfWrapsSentinels(t *testing.T) {
	sentinel := errors.New("root cause")
	err := Newf(NotFound, "looking up thing: %w", sentinel)
	if !errors.Is(err, sentinel) {
		t.Fatal("errors.Is must see through Newf's %w")
	}
	if CodeOf(err) != NotFound {
		t.Fatalf("CodeOf = %s", CodeOf(err))
	}
	if got, want := err.Error(), "looking up thing: root cause"; got != want {
		t.Fatalf("Error() = %q, want %q", got, want)
	}
}

func TestWrapPreservesMessageAndChain(t *testing.T) {
	cause := fmt.Errorf("outer: %w", context.DeadlineExceeded)
	err := Wrap(Internal, cause)
	if err.Error() != cause.Error() {
		t.Fatalf("Wrap changed the message: %q vs %q", err.Error(), cause.Error())
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("Wrap broke the unwrap chain")
	}
	// An explicit code on the wrapper wins over the sentinel fallback.
	if CodeOf(err) != Internal {
		t.Fatalf("CodeOf = %s, want INTERNAL (explicit wrap wins)", CodeOf(err))
	}
	if Wrap(Internal, nil) != nil {
		t.Fatal("Wrap(nil) must be nil")
	}
}

func TestInterrupt(t *testing.T) {
	for _, tc := range []struct {
		cause error
		code  Code
	}{
		{context.Canceled, Canceled},
		{context.DeadlineExceeded, DeadlineExceeded},
		{fmt.Errorf("wrapped: %w", context.Canceled), Canceled},
		{errors.New("not a context error"), Internal},
	} {
		err := Interrupt(tc.cause)
		if CodeOf(err) != tc.code {
			t.Errorf("Interrupt(%v): CodeOf = %s, want %s", tc.cause, CodeOf(err), tc.code)
		}
		if KindOf(err) != KindInterrupt {
			t.Errorf("Interrupt(%v): KindOf = %s", tc.cause, KindOf(err))
		}
		if !errors.Is(err, tc.cause) {
			t.Errorf("Interrupt(%v) broke errors.Is to the cause", tc.cause)
		}
	}
}

// stackedErr simulates a foreign defect type (like core.PanicError) that
// participates via the Coder/Kinder/Stacker interfaces without wrapping.
type stackedErr struct{ stack string }

func (e *stackedErr) Error() string      { return "boom" }
func (e *stackedErr) ErrorCode() Code    { return Internal }
func (e *stackedErr) ErrorKind() Kind    { return KindDefect }
func (e *stackedErr) ErrorStack() string { return e.stack }

func TestForeignTypesClassifyWithoutWrapping(t *testing.T) {
	err := &stackedErr{stack: "goroutine 1 [running]:\nmain.main()"}
	if CodeOf(err) != Internal || KindOf(err) != KindDefect {
		t.Fatalf("foreign defect classified as %s/%s", KindOf(err), CodeOf(err))
	}
	if StackOf(err) != err.stack {
		t.Fatal("StackOf must read the foreign Stacker")
	}
}

func TestWithRequestID(t *testing.T) {
	base := New(Unavailable, "core: ServePool is closed")
	err := WithRequestID(base, "req-42")
	if RequestIDOf(err) != "req-42" {
		t.Fatalf("RequestIDOf = %q", RequestIDOf(err))
	}
	// Identity against the (sentinel) original must survive the wrap.
	if !errors.Is(err, base) {
		t.Fatal("WithRequestID broke errors.Is against the sentinel")
	}
	if CodeOf(err) != Unavailable {
		t.Fatalf("CodeOf = %s", CodeOf(err))
	}
	if err.Error() != base.Error() {
		t.Fatal("WithRequestID changed the message")
	}
	if WithRequestID(nil, "req-42") != nil {
		t.Fatal("WithRequestID(nil) must be nil")
	}
	if got := WithRequestID(base, ""); got != base {
		t.Fatal("WithRequestID with empty id must return err unchanged")
	}
}

func TestStackOfSkipsEmptyStackWrappers(t *testing.T) {
	// A request-ID wrapper carries no stack of its own; the walk must keep
	// going to find the defect's stack underneath.
	defect := &stackedErr{stack: "the real stack"}
	wrapped := WithRequestID(defect, "req-7")
	if StackOf(wrapped) != "the real stack" {
		t.Fatalf("StackOf through wrapper = %q", StackOf(wrapped))
	}
}

func TestCodeOfDefaults(t *testing.T) {
	if CodeOf(nil) != "" {
		t.Fatal("CodeOf(nil) must be empty")
	}
	for _, tc := range []struct {
		err  error
		code Code
	}{
		{errors.New("anonymous"), Internal}, // unclassified → server's fault
		{context.Canceled, Canceled},
		{context.DeadlineExceeded, DeadlineExceeded},
		{fmt.Errorf("op: %w", context.DeadlineExceeded), DeadlineExceeded},
	} {
		if got := CodeOf(tc.err); got != tc.code {
			t.Errorf("CodeOf(%v) = %s, want %s", tc.err, got, tc.code)
		}
	}
}

func TestHTTPStatus(t *testing.T) {
	for _, tc := range []struct {
		err    error
		status int
	}{
		{nil, http.StatusOK},
		{New(InvalidArgument, "x"), http.StatusBadRequest},
		{New(NotFound, "x"), http.StatusNotFound},
		{New(ResourceExhausted, "x"), http.StatusTooManyRequests},
		{New(Unavailable, "x"), http.StatusServiceUnavailable},
		{Interrupt(context.DeadlineExceeded), http.StatusGatewayTimeout},
		{Interrupt(context.Canceled), StatusClientClosedRequest},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{context.Canceled, StatusClientClosedRequest},
		{errors.New("disk exploded"), http.StatusInternalServerError},
		{New(Internal, "x"), http.StatusInternalServerError},
	} {
		if got := HTTPStatus(tc.err); got != tc.status {
			t.Errorf("HTTPStatus(%v) = %d, want %d", tc.err, got, tc.status)
		}
	}
}

func TestOutcome(t *testing.T) {
	for _, tc := range []struct {
		err     error
		outcome string
	}{
		{nil, "ok"},
		{New(InvalidArgument, "x"), "invalid"},
		{New(NotFound, "x"), "not_found"},
		{New(ResourceExhausted, "x"), "overloaded"},
		{New(Unavailable, "x"), "unavailable"},
		{context.DeadlineExceeded, "deadline"},
		{context.Canceled, "canceled"},
		{errors.New("anonymous"), "internal"},
	} {
		if got := Outcome(tc.err); got != tc.outcome {
			t.Errorf("Outcome(%v) = %q, want %q", tc.err, got, tc.outcome)
		}
	}
}

func TestFormatVerbose(t *testing.T) {
	err := WithRequestID(&stackedErr{stack: "goroutine 1 [running]"}, "req-9")
	s := fmt.Sprintf("%+v", err)
	for _, want := range []string{"boom", "defect", "INTERNAL", "rid=req-9", "goroutine"} {
		if !strings.Contains(s, want) {
			t.Errorf("%%+v output missing %q:\n%s", want, s)
		}
	}
	if plain := fmt.Sprintf("%v", err); plain != "boom" {
		t.Errorf("%%v output = %q, want just the message", plain)
	}
}
