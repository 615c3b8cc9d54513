package churnreg_test

// Support types for the micro-benchmarks: a no-op Env for driving protocol
// nodes without a network.

import (
	"churnreg/internal/core"
	"churnreg/internal/sim"
)

type nullEnv struct {
	n int
}

func (e *nullEnv) ID() core.ProcessID                { return 1 }
func (e *nullEnv) Now() sim.Time                     { return 0 }
func (e *nullEnv) Send(core.ProcessID, core.Message) {}
func (e *nullEnv) Broadcast(core.Message)            {}
func (e *nullEnv) After(sim.Duration, func())        {}
func (e *nullEnv) Delta() sim.Duration               { return 5 }
func (e *nullEnv) SystemSize() int                   { return e.n }
func (e *nullEnv) MarkActive()                       {}

var _ core.Env = (*nullEnv)(nil)

func coreBootstrap() core.SpawnContext {
	return core.SpawnContext{Bootstrap: true, Initial: core.VersionedValue{Val: 0, SN: 0}}
}

func coreInquiry(from core.ProcessID) *core.InquiryMsg {
	return &core.InquiryMsg{From: from}
}
