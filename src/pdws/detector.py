"""Detection: recompute the chunk chain at each offset and verify.

Detection needs only the public key, the hash salts and a Layout (ell,
beta, lambda_sig, lambda_c); the error-correcting code is the layout's
own, and no embedding knob (gamma_max, a_max, n) is read. Every Layout
that constructs has a code, so detect and detect_all never raise on one.
At a candidate offset the first ell chars are read as the message block
and each following block's chained hash h_bit(m || x || c_prev) is
recomputed; the concatenated values are unmasked with h_mask(msg),
decoded by the error-correcting code, and the recovered signature is
checked against h_sign(msg). Any planted block contributes a wrong
chunk, which the code corrects up to its capacity t; the embedder's
budget gamma_max never exceeds t. The chain is a crypto.BitChain, the
same one the embedder sampled against.

An offset's blocks are the UTF-8 bytes of every ell-th ell-char window
from it, and its chain absorbs all of its signature blocks in one call.
A window holding a lone surrogate does not encode, and no offset that
reads it can hold a gadget, since the embedder never emits one.

A serial scan encodes each window at most once, when the first offset
that reads it is tried, so a scan that stops at offset k has encoded only
the windows of offsets 0..k. detect_all, a known_offset probe (the same
scan limited to one offset) and a full detect of fewer than _SHARD_MIN
offsets scan serially. A longer full detect, where os.fork exists and
the process may use two CPUs, forks one child that hashes the back share
of the offsets with its own window columns and writes their chains to a
pipe with marshal. Meanwhile the calling process scans the front share
as above, then tries each back offset in order with the child's chain,
encoding only its message block once more; so _try_offset, ecc.decode
and verify still run in the caller, once per offset tried, and the
lowest verifying offset wins. A front hit kills the child, and the child
is always reaped before detect returns or raises. If the fork fails, or
the child dies or writes short, the caller scans the back share itself.
detect_all stays serial: after a hit its skip rule would discard most
of a child's share.

A forged text would need a valid signature on its own message block, so
false positives reduce to signature forgery (or a hash collision on the
decode side, bounded by the code's minimum distance).
"""

from __future__ import annotations

import marshal
import os
from dataclasses import dataclass
from typing import Iterator, Optional

from . import crypto, ecc
from .core import FORMAT_VERSION, BitString, Layout, _require_int
from .crypto import KeyMaterial, OracleSuite


@dataclass(frozen=True)
class DetectionResult:
    """Verdict for one text (or one gadget within it)."""

    detected: bool
    offset: Optional[int] = None
    corrected_errors: int = 0
    recovered_sig: Optional[BitString] = None
    message_block: Optional[str] = None

    def to_json_dict(self) -> dict:
        sig = None
        if self.recovered_sig is not None:
            sig = {
                "hex": self.recovered_sig.to_bytes().hex(),
                "bits": self.recovered_sig.length,
            }
        return {
            "format_version": FORMAT_VERSION,
            "detected": self.detected,
            "offset": self.offset,
            "corrected_errors": self.corrected_errors,
            "recovered_sig": sig,
            "message_block": self.message_block,
        }


_NOT_DETECTED = DetectionResult(detected=False)


def _windows(text: str, ell: int, starts: range) -> list[Optional[bytes]]:
    """UTF-8 bytes of the ell-char window at each start, None for one that cannot encode."""
    windows = []
    for i in starts:
        try:
            windows.append(text[i : i + ell].encode("utf-8"))
        except UnicodeEncodeError:
            # A lone surrogate: the embedder never emits one, so no gadget here.
            windows.append(None)
    return windows


def _columns(text: str, layout: Layout, offsets: range):
    """windows(offset): the 1 + n_blocks windows of each offset in offsets, asked in order.

    Offsets ell apart read the same windows but one, so the windows are
    kept in one column per residue offset % ell. At each offset its column
    drops, in place, the windows before the offset and encodes only those
    past its end: each window is encoded once, only when an offset reads
    it, and a column holds one gadget's worth of windows. Offsets may be
    skipped, but not revisited.
    """
    ell, gadget_len, first = layout.ell, layout.gadget_chars, offsets.start
    # Column (offset - first) % ell: [last offset asked there, its windows].
    # ell is outside input, so there are no more columns than offsets; an
    # unasked column is empty, so what it drops does not matter.
    columns = [[first, []] for _ in range(min(ell, len(offsets)))]

    def windows(offset: int) -> list[Optional[bytes]]:
        column = columns[(offset - first) % ell]
        blocks = column[1]
        del blocks[: (offset - column[0]) // ell]
        column[0] = offset
        blocks += _windows(text, ell, range(offset + ell * len(blocks), offset + gadget_len, ell))
        return blocks

    return windows


def _chain(blocks: list[Optional[bytes]], layout: Layout, suite: OracleSuite) -> Optional[bytes]:
    """The packed chunk values of the gadget read from blocks; None if a window would not encode."""
    if not all(blocks):  # a window that would not encode is None; none is empty
        return None
    return crypto.BitChain(suite.bit_oracle(), layout.beta).absorb(blocks[1:])


def _chains(text: str, layout: Layout, suite: OracleSuite, offsets: range) -> list:
    """_chain at each offset in offsets, in order: the forked child's share of a scan."""
    windows = _columns(text, layout, offsets)
    return [_chain(windows(offset), layout, suite) for offset in offsets]


def _try_offset(
    msg_bytes: Optional[bytes],
    chain: Optional[bytes],
    offset: int,
    layout: Layout,
    keys: KeyMaterial,
    suite: OracleSuite,
) -> Optional[DetectionResult]:
    """Attempt full recovery of the gadget at offset from its message block and its _chain."""
    if chain is None:
        return None
    chunks = BitString.from_bytes(chain, layout.lambda_c)
    codeword = suite.h_mask(msg_bytes, layout.lambda_c) ^ chunks
    sigma = ecc.decode(codeword, layout)
    if sigma is None:
        return None
    if not crypto.verify(keys, suite.h_sign(msg_bytes), sigma):
        return None
    corrected = ecc.symbol_distance(codeword, ecc.encode(sigma, layout))
    return DetectionResult(
        detected=True,
        offset=offset,
        corrected_errors=corrected,
        recovered_sig=sigma,
        message_block=msg_bytes.decode("utf-8"),
    )


def _scan(
    keys: KeyMaterial, layout: Layout, text: str, suite: OracleSuite, offsets: range
) -> Iterator[DetectionResult]:
    """Yield every gadget at offsets.start..offsets.stop-1, in offset order, in this process.

    After a hit the scan resumes at offset + gadget_chars - ell so a
    following gadget whose message block is the previous gadget's final
    window is still seen; non-overlapping gadgets are a fortiori covered.
    """
    gadget_len = layout.gadget_chars
    offsets = range(offsets.start, min(offsets.stop, len(text) - gadget_len + 1))
    windows_at = _columns(text, layout, offsets)
    offset = offsets.start
    while offset < offsets.stop:
        windows = windows_at(offset)
        result = _try_offset(windows[0], _chain(windows, layout, suite), offset, layout, keys, suite)
        if result is not None:
            yield result
            offset += gadget_len - layout.ell
        else:
            offset += 1


# A full detect of at least _SHARD_MIN offsets forks one child, which
# hashes the offsets from _FRONT_SIXTEENTHS / 16 of the way on. A fork and
# its reaping cost about 2.5 ms, and on a 2-vCPU VM a compact-328 or
# wide-32 scan broke even at about 64 offsets. The caller also decodes
# the child's offsets, so the child takes the larger share; 7/16 and 8/16
# read within a few percent of each other there.
_SHARD_MIN = 64
_FRONT_SIXTEENTHS = 7


def _may_shard() -> bool:
    """Whether a child can hash beside this process: os.fork exists and two CPUs are usable."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return hasattr(os, "fork") and cpus > 1


def _fork_chains(text: str, layout: Layout, suite: OracleSuite, offsets: range):
    """(pid, read end of a pipe) of a child writing _chains(offsets) with marshal; None if no fork."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:  # out of file descriptors
        return None
    try:
        pid = os.fork()
    except (OSError, RuntimeError):  # no process to spare, or a subinterpreter
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        # The child: whatever happens, it leaves here, skipping the caller's
        # cleanup; a short write means the caller hashes this share itself.
        try:
            os.close(read_fd)
            data = memoryview(marshal.dumps(_chains(text, layout, suite, offsets)))
            while data:
                data = data[os.write(write_fd, data) :]
        finally:
            os._exit(0)
    os.close(write_fd)
    return pid, read_fd


def _read_chains(read_fd: int, count: int) -> Optional[list]:
    """The child's count chains, read to the end of its pipe; None if it wrote fewer or none."""
    parts = []
    while part := os.read(read_fd, 1 << 16):
        parts.append(part)
    try:
        chains = marshal.loads(b"".join(parts))
    except (EOFError, ValueError, TypeError):
        return None
    return chains if type(chains) is list and len(chains) == count else None


def _reap(child) -> None:
    """Kill the child unless it has exited, and wait for it, so that no process outlives detect."""
    pid, read_fd = child
    os.close(read_fd)
    if os.waitpid(pid, os.WNOHANG) == (0, 0):
        from signal import SIGKILL  # only a scan that stops early gets here

        os.kill(pid, SIGKILL)
        os.waitpid(pid, 0)


def _sharded_detect(
    keys: KeyMaterial, layout: Layout, text: str, suite: OracleSuite, stop: int
) -> DetectionResult:
    """detect's full scan of offsets 0..stop-1, the back share hashed in a forked child.

    This process hashes and tries the front share offset by offset, then
    tries each back offset in order with the child's chain, so the lowest
    verifying offset still wins. A front hit ends the child. If the child
    never started, or died before it wrote all its chains, this process
    scans the back share itself.
    """
    mid = stop * _FRONT_SIXTEENTHS // 16
    back = range(mid, stop)
    child = _fork_chains(text, layout, suite, back)
    try:
        result = next(_scan(keys, layout, text, suite, range(mid)), None)
        if result is not None:
            return result
        chains = _read_chains(child[1], len(back)) if child else None
        if chains is None:
            return next(_scan(keys, layout, text, suite, back), _NOT_DETECTED)
        ell = layout.ell
        for offset, chain in zip(back, chains):
            msg_bytes = None if chain is None else text[offset : offset + ell].encode("utf-8")
            result = _try_offset(msg_bytes, chain, offset, layout, keys, suite)
            if result is not None:
                return result
        return _NOT_DETECTED
    finally:
        if child:
            _reap(child)


def detect(
    keys: KeyMaterial,
    layout: Layout,
    text: str,
    *,
    suite: OracleSuite = OracleSuite(),
    known_offset: Optional[int] = None,
) -> DetectionResult:
    """Scan every offset (or probe just one) for an embedded signature.

    layout may be a full WatermarkParams; only its Layout fields are read.
    With known_offset the scan is limited to that one offset and encodes
    only its gadget's windows; a known_offset that is not an int (a bool,
    float or string) raises ParameterError, and one where no gadget fits
    means not detected. Otherwise offsets 0..len(text)-gadget_chars are
    tried in order and the lowest verifying one wins; a long scan hashes
    its back share in a forked child, reaped before detect returns (see
    the module docstring). Total: bad text means not detected.
    """
    offsets = range(len(text))
    if known_offset is not None:
        _require_int("known_offset", known_offset)
        offsets = range(max(known_offset, 0), known_offset + 1)  # empty when negative
    else:
        stop = len(text) - layout.gadget_chars + 1
        if stop >= _SHARD_MIN and _may_shard():
            return _sharded_detect(keys, layout, text, suite, stop)
    return next(_scan(keys, layout, text, suite, offsets), _NOT_DETECTED)


def detect_all(
    keys: KeyMaterial,
    layout: Layout,
    text: str,
    *,
    suite: OracleSuite = OracleSuite(),
) -> list[DetectionResult]:
    """Find every gadget, including tiled ones that share a message block."""
    return list(_scan(keys, layout, text, suite, range(len(text))))
