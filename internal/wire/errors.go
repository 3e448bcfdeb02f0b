package wire

import (
	"errors"
	"fmt"

	"repro/internal/accelos"
	"repro/internal/opencl"
)

// Code is a typed error code carried in Status and Welcome bodies. The
// mapping is lossless for the runtime's sentinel errors: CodeOf turns a
// server-side error chain into a code, and Code.Err reconstructs an
// error on the client for which errors.Is against the original sentinel
// still holds — so a client can write
//
//	errors.Is(err, accelos.ErrKernelQuarantined)
//
// about a failure that happened in another process.
type Code uint16

const (
	CodeOK Code = 0

	// Runtime sentinels that round-trip across the boundary. Code 1 is
	// retired and never reused: an older peer that sends it is read as
	// an untyped failure with its message.
	CodeBufferReleased Code = 2 // opencl.ErrBufferReleased
	CodeAppClosed      Code = 3 // accelos.ErrAppClosed
	CodeOutOfMemory    Code = 4 // opencl.ErrOutOfMemory
	CodeDeviceLost     Code = 5 // accelos.ErrDeviceLost
	CodeKernelTimeout  Code = 6 // accelos.ErrKernelTimeout
	CodeQuarantined    Code = 7 // accelos.ErrKernelQuarantined

	// Service-layer verdicts.
	CodeBadHandshake  Code = 16 // malformed hello or version mismatch
	CodeUnknownTenant Code = 17 // tenant not in the auth table, or bad token
	CodeBackpressure  Code = 18 // per-connection in-flight window exceeded
	CodeRateLimited   Code = 19 // per-tenant rate limit exceeded
	CodeNotFound      Code = 20 // unknown program/kernel/buffer/event id
	CodeBadRequest    Code = 21 // structurally valid frame, invalid contents
	CodeInternal      Code = 22

	// Appended, never renumbered: an older peer reads a code it does not
	// know as an untyped failure with the server's message.
	CodeBuildFailed Code = 23 // accelos.ErrBuildFailed
)

// Service-layer sentinel errors; Code.Err wraps these so clients can
// errors.Is against them exactly like the runtime sentinels.
var (
	ErrBadHandshake  = errors.New("wire: bad handshake")
	ErrUnknownTenant = errors.New("wire: unknown tenant or bad token")
	ErrBackpressure  = errors.New("wire: too many requests in flight on connection")
	ErrRateLimited   = errors.New("wire: tenant rate limit exceeded")
	ErrNotFound      = errors.New("wire: unknown object id")
	ErrBadRequest    = errors.New("wire: bad request")
	ErrInternal      = errors.New("wire: internal server error")
)

// sentinel returns the canonical error a code stands for, or nil for
// CodeOK and unknown codes.
func (c Code) sentinel() error {
	switch c {
	case CodeBufferReleased:
		return opencl.ErrBufferReleased
	case CodeAppClosed:
		return accelos.ErrAppClosed
	case CodeOutOfMemory:
		return opencl.ErrOutOfMemory
	case CodeDeviceLost:
		return accelos.ErrDeviceLost
	case CodeKernelTimeout:
		return accelos.ErrKernelTimeout
	case CodeQuarantined:
		return accelos.ErrKernelQuarantined
	case CodeBadHandshake:
		return ErrBadHandshake
	case CodeUnknownTenant:
		return ErrUnknownTenant
	case CodeBackpressure:
		return ErrBackpressure
	case CodeRateLimited:
		return ErrRateLimited
	case CodeNotFound:
		return ErrNotFound
	case CodeBadRequest:
		return ErrBadRequest
	case CodeInternal:
		return ErrInternal
	case CodeBuildFailed:
		return accelos.ErrBuildFailed
	}
	return nil
}

func (c Code) String() string {
	if c == CodeOK {
		return "ok"
	}
	if s := c.sentinel(); s != nil {
		return s.Error()
	}
	return fmt.Sprintf("code(%d)", uint16(c))
}

// CodeOf maps an error chain to the code that survives the wire.
// Unrecognized errors collapse to CodeInternal (their message still
// travels in Status.Msg); nil maps to CodeOK.
func CodeOf(err error) Code {
	switch {
	case err == nil:
		return CodeOK
	case errors.Is(err, opencl.ErrBufferReleased):
		return CodeBufferReleased
	case errors.Is(err, accelos.ErrAppClosed):
		return CodeAppClosed
	case errors.Is(err, opencl.ErrOutOfMemory):
		return CodeOutOfMemory
	case errors.Is(err, accelos.ErrDeviceLost):
		return CodeDeviceLost
	case errors.Is(err, accelos.ErrKernelTimeout):
		return CodeKernelTimeout
	case errors.Is(err, accelos.ErrKernelQuarantined):
		return CodeQuarantined
	case errors.Is(err, accelos.ErrBuildFailed):
		return CodeBuildFailed
	case errors.Is(err, ErrBadHandshake):
		return CodeBadHandshake
	case errors.Is(err, ErrUnknownTenant):
		return CodeUnknownTenant
	case errors.Is(err, ErrBackpressure):
		return CodeBackpressure
	case errors.Is(err, ErrRateLimited):
		return CodeRateLimited
	case errors.Is(err, ErrNotFound):
		return CodeNotFound
	case errors.Is(err, ErrBadRequest):
		return CodeBadRequest
	}
	return CodeInternal
}

// remoteError is a reconstructed server-side failure: it carries the
// server's message and unwraps to the code's canonical sentinel.
type remoteError struct {
	code Code
	msg  string
}

func (e *remoteError) Error() string {
	if e.msg != "" {
		return e.msg
	}
	return e.code.String()
}

func (e *remoteError) Unwrap() error { return e.code.sentinel() }

// Err reconstructs an error from a code and the server's message.
// errors.Is(err, <sentinel>) holds for the code's canonical sentinel,
// so typed handling survives the process boundary. CodeOK returns nil.
func (c Code) Err(msg string) error {
	if c == CodeOK {
		return nil
	}
	return &remoteError{code: c, msg: msg}
}
