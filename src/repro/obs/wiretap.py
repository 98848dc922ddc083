"""Decoded-frame descriptions: the protocol trace recorder.

A session transcript full of raw payload bytes is write-only; this
module renders every wire :class:`~repro.nub.protocol.Message` as a
flat dict of *decoded* fields (opcode name, space, address, size,
value bytes as hex) so a ``trace dump`` reads like the protocol
specification and two transcripts diff meaningfully.

The decoding reuses the protocol's own ``parse_*`` readers, so the
trace can never disagree with what the nub or session actually parsed.
A malformed payload falls back to a hex rendering plus a ``bad`` flag
instead of raising — the tracer must never turn a survivable protocol
error into a crash.
"""

from __future__ import annotations

from typing import Any, Dict

from ..nub import protocol

#: cap on hex-rendered payload bytes in a trace record
_HEX_LIMIT = 32


def _hex(raw: bytes) -> str:
    if len(raw) > _HEX_LIMIT:
        return raw[:_HEX_LIMIT].hex() + "...(%d bytes)" % len(raw)
    return raw.hex()


_ERROR_NAMES = {
    protocol.ERR_BAD_SPACE: "ERR_BAD_SPACE",
    protocol.ERR_BAD_ADDRESS: "ERR_BAD_ADDRESS",
    protocol.ERR_BAD_MESSAGE: "ERR_BAD_MESSAGE",
    protocol.ERR_UNSUPPORTED: "ERR_UNSUPPORTED",
    protocol.ERR_BAD_CHECKPOINT: "ERR_BAD_CHECKPOINT",
}

def opcode_name(mtype: int) -> str:
    return protocol._NAMES.get(mtype, "UNKNOWN(%d)" % mtype)


def describe(msg: protocol.Message) -> Dict[str, Any]:
    """One wire message as a flat dict of decoded fields.

    Always contains ``op``; a frame with a sequence id adds
    ``wire_seq``.  The remaining keys depend on the opcode and mirror
    the payload layout documented in PROTOCOL.md.
    """
    out: Dict[str, Any] = {"op": opcode_name(msg.mtype)}
    if msg.seq is not None and msg.seq != protocol.NO_SEQ:
        out["wire_seq"] = msg.seq
    try:
        _describe_payload(msg, out)
    except protocol.ProtocolError as err:
        out["bad"] = str(err)
        out["payload"] = _hex(msg.payload)
    return out


def _describe_payload(msg: protocol.Message, out: Dict[str, Any]) -> None:
    mtype = msg.mtype
    if mtype == protocol.MSG_FETCH:
        space, address, size = protocol.parse_fetch(msg)
        out.update(space=space, addr="0x%x" % address, size=size)
    elif mtype == protocol.MSG_STORE:
        space, address, raw = protocol.parse_store(msg)
        out.update(space=space, addr="0x%x" % address, size=len(raw),
                   bytes=_hex(raw))
    elif mtype == protocol.MSG_BLOCKFETCH:
        space, address, length = protocol.parse_blockfetch(msg)
        out.update(space=space, addr="0x%x" % address, len=length)
    elif mtype == protocol.MSG_BLOCKSTORE:
        space, address, raw = protocol.parse_blockstore(msg)
        out.update(space=space, addr="0x%x" % address, len=len(raw),
                   bytes=_hex(raw))
    elif mtype == protocol.MSG_PLANT:
        address, trap = protocol.parse_plant(msg)
        out.update(addr="0x%x" % address, trap=_hex(trap))
    elif mtype == protocol.MSG_UNPLANT:
        out.update(addr="0x%x" % protocol.parse_unplant(msg))
    elif mtype == protocol.MSG_BREAKLIST:
        entries = protocol.parse_breaklist(msg)
        out.update(count=len(entries),
                   breaks=["0x%x" % address for address, _orig in entries])
    elif mtype == protocol.MSG_HELLO:
        out.update(version=protocol.parse_hello(msg))
    elif mtype == protocol.MSG_SIGNAL:
        signo, code, context = protocol.parse_signal(msg)
        out.update(signo=signo, code=code, context="0x%x" % context)
    elif mtype == protocol.MSG_EXITED:
        out.update(status=protocol.parse_exited(msg))
    elif mtype == protocol.MSG_DATA:
        out.update(len=len(msg.payload), bytes=_hex(msg.payload))
    elif mtype == protocol.MSG_ERROR:
        code = protocol.parse_error(msg)
        out.update(code=code, error=_ERROR_NAMES.get(code, "ERR_%d" % code))
    elif mtype == protocol.MSG_RESTORE:
        out.update(ckpt=protocol.parse_restore(msg))
    elif mtype == protocol.MSG_DROPCKPT:
        out.update(ckpt=protocol.parse_drop_checkpoint(msg))
    elif mtype == protocol.MSG_RUNTO:
        out.update(icount=protocol.parse_runto(msg))
    elif mtype == protocol.MSG_CKPT:
        cid, icount = protocol.parse_ckpt(msg)
        out.update(ckpt=(None if cid == protocol.NO_CKPT else cid),
                   icount=icount)
    elif mtype in (protocol.MSG_CONTINUE, protocol.MSG_DETACH,
                   protocol.MSG_KILL, protocol.MSG_OK, protocol.MSG_BREAKS,
                   protocol.MSG_CHECKPOINT, protocol.MSG_ICOUNT):
        if msg.payload:
            out.update(payload=_hex(msg.payload))
    else:
        out.update(payload=_hex(msg.payload))
