package session

import "tlc/internal/protocol"

// The session engine runs protocol's Algorithm 1 state machine. These
// aliases keep the names the engine's users already hold: the Config
// field that EngineConfig and ClientConfig embed, and the benchmark
// harness under perfbench/, which drives session.Machine directly.
type (
	Machine = protocol.Machine
	Config  = protocol.Config
	Env     = protocol.Env
)
