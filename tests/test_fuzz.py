"""A standing byte-level fuzz of ``tasklens ingest``: seeded mutations of log
lines in the benchmark's shape (byte flips, truncations, splices, duplicated
lines, inserted lines of whitespace and JSON punctuation) run through
``cli.main``.  Each run must exit 0 or 2 within a time bound, and every line
that holds anything but JSON whitespace must come out as an event or as a
malformed line."""

import random
import re
import time

import pytest

from tasklens.cli import main
from tasklens.synth import mixed_lines

# The criterion-7 generator at a small scale: every event kind, dirty lines included.
LINES = [line.encode() for line in mixed_lines(target_events=300, n_users=6)]
# ASCII and Unicode whitespace, JSON's own among it, and JSON punctuation.
FILLER = " \t\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2028\u2029\u3000\ufeff{}[],:\"0"
SECONDS = 2.0


def mutated(rng: random.Random) -> list[bytes]:
    """A window of the log's lines with a few mutations."""
    start = rng.randrange(len(LINES) - 60)
    lines = LINES[start:start + 60]
    for _ in range(rng.randint(1, 10)):
        i = rng.randrange(len(lines))
        line = lines[i]
        op = rng.randrange(5)
        if op == 0 and line:
            j = rng.randrange(len(line))
            lines[i] = line[:j] + bytes([line[j] ^ 1 << rng.randrange(8)]) + line[j + 1:]
        elif op == 1:
            lines[i] = line[:rng.randrange(len(line) + 1)]
        elif op == 2:
            other = rng.choice(lines)
            lines[i] = line[:rng.randrange(len(line) + 1)] + other[rng.randrange(len(other) + 1):]
        elif op == 3:
            lines.insert(i, line)
        else:
            filler = "".join(rng.choice(FILLER) for _ in range(rng.randint(1, 3)))
            lines.insert(i, filler.encode())
    return lines


@pytest.mark.parametrize("seed", range(10))
def test_mutated_lines_are_events_or_malformed(seed, tmp_path, capsys):
    rng = random.Random(seed)
    log = tmp_path / "log.jsonl"
    for _ in range(25):
        blob = b"\n".join(mutated(rng)) + b"\n"
        log.write_bytes(blob)
        # A line ends at "\n" alone; one of JSON whitespace alone is blank.
        nonblank = sum(1 for line in blob.split(b"\n") if line.strip(b" \t\r"))
        started = time.perf_counter()
        code = main(["ingest", "--events", str(log)])
        assert time.perf_counter() - started < SECONDS
        out = capsys.readouterr().out
        assert code in (0, 2)
        events = int(re.search(r"^events +(\d+)$", out, re.M)[1])
        malformed = int(re.search(r"^malformed lines +(\d+)$", out, re.M)[1])
        assert events + malformed == nonblank, blob
