package protocol

import (
	"errors"

	"tlc/internal/metrics"
)

// Metrics are the negotiation-layer instruments, observed inline:
// unlike the simulated substrates, protocol runs serve live peers
// (cmd/tlcd) where a cycle-end flush would be too late. All updates
// are single atomic operations on pre-registered instruments — no
// locks, no allocation, no clock reads and no RNG draws, so
// simulation-driven negotiations (RunPair in the experiment suite)
// stay byte-deterministic.
//
// NegotiateSeconds is observed by the caller that owns a real clock
// (cmd/tlcd wraps each settlement with time.Since); nothing in
// internal/ reads wall time, which keeps the tlcvet simtime pass
// clean without waivers.
var Metrics = negotiationMetrics{
	NegotiationsStarted: metrics.Default.Counter("protocol_negotiations_started_total",
		"negotiation runs started by this process"),
	NegotiationsSettled: metrics.Default.Counter("protocol_negotiations_settled_total",
		"negotiation runs settled with a doubly signed PoC"),
	NegotiationsFailed: metrics.Default.Counter("protocol_negotiations_failed_total",
		"negotiation runs that returned an error"),
	RoundsTotal: metrics.Default.Counter("protocol_rounds_total",
		"claims sent or answered across settled negotiations"),
	Retries: metrics.Default.Counter("protocol_retries_total",
		"backoff re-attempts taken by negotiation retry loops"),
	StaleProofRejections: metrics.Default.Counter("protocol_stale_proof_rejections_total",
		"negotiations rejected because the peer presented a replayed PoC"),
	ByzantineRejections: metrics.Default.Counter("protocol_byzantine_rejections_total",
		"negotiations rejected because a peer message failed validation"),
	FrameTruncations: metrics.Default.Counter("protocol_frame_truncations_total",
		"negotiations aborted by a stream that died mid-frame"),
	NegotiateSeconds: metrics.Default.Histogram("protocol_negotiate_seconds",
		"negotiation round-trip latency in seconds (observed by live servers)",
		metrics.DefBuckets),
}

// negotiationMetrics is the type of Metrics.
type negotiationMetrics struct {
	// NegotiationsStarted/Settled/Failed count negotiation outcomes,
	// from Party.Run and the session engine alike.
	NegotiationsStarted *metrics.Counter
	NegotiationsSettled *metrics.Counter
	NegotiationsFailed  *metrics.Counter
	// RoundsTotal accumulates claims sent/answered across settled
	// negotiations (RoundsTotal/NegotiationsSettled = mean rounds).
	RoundsTotal *metrics.Counter
	// Retries counts backoff re-attempts taken by Retrier.Do.
	Retries *metrics.Counter
	// StaleProofRejections counts replayed-PoC rejections
	// (ErrStaleProof); ByzantineRejections counts peer-validation
	// failures (ErrBadPeer: bad signatures, forged or mismatched
	// claims); FrameTruncations counts streams that died mid-frame.
	StaleProofRejections *metrics.Counter
	ByzantineRejections  *metrics.Counter
	FrameTruncations     *metrics.Counter
	// NegotiateSeconds is the negotiation round-trip latency
	// histogram, observed by live callers (cmd/tlcd).
	NegotiateSeconds *metrics.Histogram
}

// Settle records a negotiation that settled after rounds claims.
func (m *negotiationMetrics) Settle(rounds int) {
	m.NegotiationsSettled.Inc()
	m.RoundsTotal.Add(uint64(rounds))
}

// Fail records a failed negotiation and classifies its cause; nil is
// a failure without a typed cause (a peer abort, a swept session).
func (m *negotiationMetrics) Fail(err error) {
	m.NegotiationsFailed.Inc()
	switch {
	case errors.Is(err, ErrStaleProof):
		m.StaleProofRejections.Inc()
	case errors.Is(err, ErrBadPeer):
		m.ByzantineRejections.Inc()
	case errors.Is(err, ErrFrameTruncated):
		m.FrameTruncations.Inc()
	}
}
