#!/usr/bin/env python3
"""Generate the seeded v2-frame fuzz corpus (tests/data/fuzz/*.bin).

Each corpus file is a whole number of 32-byte ring slots holding one v2
frame — valid or deliberately hostile — that tests/test_fuzz_frame.cc
loads as mutation bases. Valid frames mirror src/ipc/frame.cc exactly:

  header (32B): <IIIHHIIQ  magic, pid, base_seq, count, flags,
                           body_crc, header_crc, reserved
  record (24B): <IIQQ      op, reserved, arg0, arg1

header_crc covers the first 20 bytes; flags and reserved are zero.
zlib's crc32 is the same reflected-0xEDB88320 CRC the repo computes.

The var_*.bin seeds (and bad_magic.bin, cut from var_mixed.bin) are
reject seeds. They are frames of a retired variable-length body: flags
bit 0 set, reserved carrying the body byte length (chained into
header_crc), and each record with arg1 == 0 shrunk to a 16-byte
<IIQ op|0x80000000, reserved, arg0. The decoder must refuse them as bad
headers; they stay in the corpus as hostile inputs.

Run from the repo root:  python3 scripts/gen_fuzz_corpus.py
The output is deterministic; regenerate only when the wire format
changes, and commit the result.
"""

import struct
import zlib
from pathlib import Path

MAGIC = 0x32465148  # "HQF2"
FLAG_VAR = 0x1
SHORT_BIT = 0x80000000
SLOT = 32

# Opcode values (src/ipc/message.h).
OP_POINTER_DEFINE = 4
OP_POINTER_CHECK = 5
OP_POINTER_INVALIDATE = 6
OP_LABEL_DEF = 23
OP_LABEL_CHECK = 24
OP_LABEL_JOIN = 25

OUT_DIR = Path(__file__).resolve().parent.parent / "tests" / "data" / "fuzz"


def pad_to_slots(body: bytes) -> bytes:
    rem = len(body) % SLOT
    return body + b"\0" * (SLOT - rem) if rem else body


def header(pid, base_seq, count, flags, body_crc, reserved) -> bytes:
    first20 = struct.pack("<IIIHHI", MAGIC, pid, base_seq, count, flags,
                          body_crc)
    crc = zlib.crc32(first20)
    if flags & FLAG_VAR:
        crc = zlib.crc32(struct.pack("<Q", reserved), crc)
    return first20 + struct.pack("<IQ", crc, reserved)


def fixed_frame(pid, base_seq, records) -> bytes:
    body = b"".join(
        struct.pack("<IIQQ", op, 0, a0, a1) for op, a0, a1 in records)
    head = header(pid, base_seq, len(records), 0, zlib.crc32(body), 0)
    return head + pad_to_slots(body)


def var_frame(pid, base_seq, records) -> bytes:
    body = b""
    for op, a0, a1 in records:
        if a1 == 0:
            body += struct.pack("<IIQ", op | SHORT_BIT, 0, a0)
        else:
            body += struct.pack("<IIQQ", op, 0, a0, a1)
    head = header(pid, base_seq, len(records), FLAG_VAR,
                  zlib.crc32(body), len(body))
    return head + pad_to_slots(body)


def main():
    OUT_DIR.mkdir(parents=True, exist_ok=True)

    label_records = [
        (OP_LABEL_DEF, 0x1000, 0x2),        # bind SECRET
        (OP_LABEL_JOIN, 0x1000, 0x2000),    # propagate
        (OP_LABEL_CHECK, 0x2000, 0x2),      # sink check
        (OP_LABEL_DEF, 0x1000, 0),          # declassify
    ]
    mixed_records = [
        (OP_POINTER_DEFINE, 0x7000, 0x400000),
        (OP_POINTER_CHECK, 0x7000, 0x400000),
        (OP_POINTER_INVALIDATE, 0x7000, 0),
    ] + label_records

    corpus = {}
    corpus["fixed_labels.bin"] = fixed_frame(7, 100, label_records)
    corpus["fixed_max.bin"] = fixed_frame(
        7, 0, [(OP_POINTER_CHECK, 8 * i, i) for i in range(64)])
    corpus["var_mixed.bin"] = var_frame(7, 200, mixed_records)
    corpus["var_all_short.bin"] = var_frame(
        7, 300, [(OP_LABEL_DEF, 8 * i, 0) for i in range(16)])

    # Deliberately broken seeds: the mutator starts near the edge cases.
    bad_body = bytearray(corpus["fixed_labels.bin"])
    bad_body[SLOT + 4] ^= 0xFF  # flip a body byte under the CRC
    corpus["bad_body.bin"] = bytes(bad_body)

    bad_magic = bytearray(corpus["var_mixed.bin"])
    bad_magic[0] ^= 0x01
    corpus["bad_magic.bin"] = bytes(bad_magic)

    # Header claims 10 records but only two body slots follow.
    truncated = fixed_frame(
        7, 400, [(OP_LABEL_JOIN, i, i + 1) for i in range(10)])
    corpus["truncated.bin"] = truncated[:3 * SLOT]

    for name, blob in sorted(corpus.items()):
        assert len(blob) % SLOT == 0, name
        (OUT_DIR / name).write_bytes(blob)
        print(f"{name}: {len(blob)} bytes ({len(blob) // SLOT} slots)")


if __name__ == "__main__":
    main()
