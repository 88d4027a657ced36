"""Golden stdout of the CLI: every ``verify`` suite at its defaults and
``compute --corpus`` on every corpus entry, compared byte for byte with
the files under ``tests/golden/``.

Regenerate a file only when its change is intended, and say why in the
change log: ``PYTHONPATH=src python tests/test_golden.py NAME...`` rewrites
the named files (``b1-ge-4``, ``compute-t3``, ...).
"""

import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from alexinv import cli, corpus, verify

GOLDEN = Path(__file__).parent / "golden"

RUNS = {**{theorem: ["verify", theorem] for theorem in verify.THEOREMS},
        **{"compute-" + name: ["compute", "--corpus", name]
           for name in corpus.names()}}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_stdout(name, capsys):
    code = cli.main(RUNS[name])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out == (GOLDEN / (name + ".json")).read_text(encoding="utf-8")


if __name__ == "__main__":
    for name in sys.argv[1:]:
        buf = StringIO()
        with redirect_stdout(buf):
            code = cli.main(RUNS[name])
        if code:
            sys.exit("%s exited with %d" % (name, code))
        (GOLDEN / (name + ".json")).write_text(buf.getvalue(),
                                               encoding="utf-8")
