package vm

import (
	"fmt"
	"math"

	"repro/internal/fpm"
	"repro/internal/ir"
)

// intrin executes one intrinsic call. Math intrinsics are pure and simply
// compute; observability intrinsics record into the VM; MPI intrinsics
// bridge to the endpoint with contamination piggyback (paper Fig. 4).
func (v *VM) intrin(fr *frame, in *ir.Instr) {
	base := fr.regBase
	arg := func(i int) uint64 {
		if i >= len(in.Args) {
			v.trap(TrapInvalid, fmt.Sprintf("intrinsic %v: missing arg %d", ir.IntrinID(in.Target), i))
		}
		return v.val(base, in.Args[i])
	}
	argF := func(i int) float64 { return f64(arg(i)) }
	argI := func(i int) int64 { return int64(arg(i)) }
	ret := func(w uint64) {
		if len(in.Rets) > 0 {
			v.regs[base+int(in.Rets[0])] = w
		}
	}

	id := ir.IntrinID(in.Target)
	switch id {
	case ir.IntrinSqrt:
		ret(fbits(math.Sqrt(argF(0))))
	case ir.IntrinSin:
		ret(fbits(math.Sin(argF(0))))
	case ir.IntrinCos:
		ret(fbits(math.Cos(argF(0))))
	case ir.IntrinExp:
		ret(fbits(math.Exp(argF(0))))
	case ir.IntrinLog:
		ret(fbits(math.Log(argF(0))))
	case ir.IntrinFabs:
		ret(fbits(math.Abs(argF(0))))
	case ir.IntrinFloor:
		ret(fbits(math.Floor(argF(0))))
	case ir.IntrinPow:
		ret(fbits(math.Pow(argF(0), argF(1))))
	case ir.IntrinFMin:
		ret(fbits(math.Min(argF(0), argF(1))))
	case ir.IntrinFMax:
		ret(fbits(math.Max(argF(0), argF(1))))

	case ir.IntrinAlloc:
		n := argI(0)
		addr, ok := v.mem.Alloc(n)
		if !ok {
			v.trap(TrapHeapExhausted, fmt.Sprintf("alloc %d words", n))
		}
		ret(uint64(addr))

	case ir.IntrinOutputF:
		if len(v.outputs) >= v.cfg.OutputLimit {
			v.trap(TrapOutputOverflow, "")
		}
		v.outputs = append(v.outputs, argF(0))
	case ir.IntrinOutputI:
		if len(v.outputs) >= v.cfg.OutputLimit {
			v.trap(TrapOutputOverflow, "")
		}
		v.outputs = append(v.outputs, float64(argI(0)))
	case ir.IntrinIterations:
		v.iterations = argI(0)
	case ir.IntrinPrintF:
		fmt.Fprintf(v.cfg.Stdout, "%g\n", argF(0))
	case ir.IntrinPrintI:
		fmt.Fprintf(v.cfg.Stdout, "%d\n", argI(0))
	case ir.IntrinCheckpointT:
		v.ticks++
		if v.cfg.Tracer != nil {
			v.cfg.Tracer.OnTick(v.cycles, argI(0))
		}
		// Timestep boundaries also catch fault-free reconvergence that
		// never touched the table (a flipped register overwritten before
		// any store): re-enter the clean interpreter when provable.
		v.tryCleanMode()
		// Single-process runs have no rendezvous; timestep boundaries are
		// their quiesce points.
		if v.cfg.MPI == nil || v.cfg.MPI.Size() == 1 {
			v.armQuiesce()
		}

	case ir.IntrinMPIRank:
		if v.cfg.MPI != nil {
			ret(uint64(int64(v.cfg.MPI.Rank())))
		} else {
			ret(0)
		}
	case ir.IntrinMPISize:
		if v.cfg.MPI != nil {
			ret(uint64(int64(v.cfg.MPI.Size())))
		} else {
			ret(1)
		}
	case ir.IntrinMPISend:
		v.mpiSend(arg(0), arg(1), arg(2), arg(3))
	case ir.IntrinMPIRecv:
		v.mpiRecv(arg(0), arg(1), arg(2), arg(3))
	case ir.IntrinMPIAllreduceF:
		v.mpiAllreduce(arg(0), arg(1), arg(2), arg(3), true)
		v.armQuiesce()
	case ir.IntrinMPIAllreduceI:
		v.mpiAllreduce(arg(0), arg(1), arg(2), arg(3), false)
		v.armQuiesce()
	case ir.IntrinMPIBarrier:
		if v.cfg.MPI != nil {
			if err := v.cfg.MPI.Barrier(); err != nil {
				v.trap(TrapPeerFailure, err.Error())
			}
		}
		v.armQuiesce()
	case ir.IntrinMPIBcast:
		v.mpiBcast(arg(0), arg(1), arg(2))
		v.armQuiesce()
	case ir.IntrinMPIAbort:
		// The trap is the whole abort: the runner makes the rank leave the
		// job, and its peers learn of it at their next call that needs it.
		v.trap(TrapAbort, fmt.Sprintf("code %d", argI(0)))

	default:
		v.trap(TrapInvalid, fmt.Sprintf("intrinsic %d", in.Target))
	}
}

func (v *VM) endpoint() MPIEndpoint {
	if v.cfg.MPI == nil {
		v.trap(TrapInvalid, "MPI intrinsic without an endpoint")
	}
	return v.cfg.MPI
}

// mpiSend reads the payload from memory, assembles the contamination
// header from the hash table (paper Fig. 4, sender side), and ships both.
func (v *VM) mpiSend(addrW, countW, dstW, tagW uint64) {
	ep := v.endpoint()
	addr, count := int64(addrW), int64(countW)
	// The payload view and the record scratch are both fully copied into
	// the wire buffer by EncodeMessage before execution resumes.
	payload, ok := v.mem.Words(addr, count)
	if !ok {
		v.trapMem(addr)
	}
	v.txRecs = v.table.AppendRange(v.txRecs[:0], addr, count)
	var wire []byte
	if v.wire != nil {
		wire = v.wire.GetBuf()
	}
	msg := fpm.AppendEncodeMessage(wire[:0], payload, v.txRecs)
	dst, tag := int(int64(dstW)), int(int64(tagW))
	if dst < 0 || dst >= ep.Size() {
		v.trap(TrapInvalid, fmt.Sprintf("send to rank %d of %d", dst, ep.Size()))
	}
	if err := ep.Send(dst, tag, msg); err != nil {
		v.trap(TrapPeerFailure, err.Error())
	}
}

// mpiRecv receives a message, installs the payload at the destination
// address, and translates displacement records into local contamination
// entries (paper Fig. 4, receiver side).
func (v *VM) mpiRecv(addrW, countW, srcW, tagW uint64) {
	ep := v.endpoint()
	addr, count := int64(addrW), int64(countW)
	src, tag := int(int64(srcW)), int(int64(tagW))
	if src < 0 || src >= ep.Size() {
		v.trap(TrapInvalid, fmt.Sprintf("recv from rank %d of %d", src, ep.Size()))
	}
	buf, err := ep.Recv(src, tag)
	if err != nil {
		v.trap(TrapPeerFailure, err.Error())
	}
	payload, recs, err := fpm.AppendDecodeMessage(v.rxWords[:0], v.rxRecs[:0], buf)
	if err != nil {
		v.trap(TrapInvalid, err.Error())
	}
	v.rxWords, v.rxRecs = payload, recs
	if v.wire != nil {
		// This VM is the message's sole consumer and the decode copied
		// everything out, so the wire buffer can carry a future message.
		v.wire.PutBuf(buf)
	}
	if int64(len(payload)) != count {
		// A corrupted count on either side surfaces as a size mismatch,
		// which a real MPI would report as a truncation error.
		v.trap(TrapPeerFailure, fmt.Sprintf("message size %d, expected %d", len(payload), count))
	}
	if !v.mem.CopyIn(addr, payload) {
		v.trapMem(addr)
	}
	before := v.table.Len()
	v.table.ApplyRange(addr, payload, recs)
	v.noteCML(before)
}

// mpiAllreduce reduces primary and pristine vectors side by side so the
// pristine result reflects what fault-free ranks would have computed.
func (v *VM) mpiAllreduce(sendW, recvW, countW, opW uint64, isFloat bool) {
	ep := v.endpoint()
	send, recv, count := int64(sendW), int64(recvW), int64(countW)
	// Contribution vectors alias this rank's memory view and scratch. The
	// collective's last arrival reads them while this rank is parked inside
	// Allreduce, and no rank touches contributions after the round result
	// is published — so the buffers are ours again when the call returns.
	prim, ok := v.mem.Words(send, count)
	if !ok {
		v.trapMem(send)
	}
	prist := v.prist[:0]
	for i := int64(0); i < count; i++ {
		prist = append(prist, v.table.PristineOr(send+i, prim[i]))
	}
	v.prist = prist
	rp, rs, err := ep.Allreduce(prim, prist, ir.ReduceOp(int64(opW)), isFloat)
	if err != nil {
		v.trap(TrapPeerFailure, err.Error())
	}
	if int64(len(rp)) != count || int64(len(rs)) != count {
		v.trap(TrapPeerFailure, "allreduce size mismatch")
	}
	if !v.mem.CopyIn(recv, rp) {
		v.trapMem(recv)
	}
	before := v.table.Len()
	for i := int64(0); i < count; i++ {
		v.table.Observe(recv+i, rp[i], rs[i])
	}
	v.noteCML(before)
}

// mpiBcast broadcasts count words at addr from root. All ranks, including
// the root, install the resulting payload and contamination records.
func (v *VM) mpiBcast(addrW, countW, rootW uint64) {
	ep := v.endpoint()
	addr, count := int64(addrW), int64(countW)
	root := int(int64(rootW))
	if root < 0 || root >= ep.Size() {
		v.trap(TrapInvalid, fmt.Sprintf("bcast root %d of %d", root, ep.Size()))
	}
	var msg []byte
	if ep.Rank() == root {
		payload, ok := v.mem.Words(addr, count)
		if !ok {
			v.trapMem(addr)
		}
		v.txRecs = v.table.AppendRange(v.txRecs[:0], addr, count)
		msg = fpm.EncodeMessage(payload, v.txRecs)
	}
	out, err := ep.Bcast(root, msg)
	if err != nil {
		v.trap(TrapPeerFailure, err.Error())
	}
	payload, recs, err := fpm.AppendDecodeMessage(v.rxWords[:0], v.rxRecs[:0], out)
	if err != nil {
		v.trap(TrapInvalid, err.Error())
	}
	v.rxWords, v.rxRecs = payload, recs
	if int64(len(payload)) != count {
		v.trap(TrapPeerFailure, fmt.Sprintf("bcast size %d, expected %d", len(payload), count))
	}
	if !v.mem.CopyIn(addr, payload) {
		v.trapMem(addr)
	}
	before := v.table.Len()
	v.table.ApplyRange(addr, payload, recs)
	v.noteCML(before)
}
