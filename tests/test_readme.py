"""The README's library example runs as written, in process."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    (source,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        exec(compile(source, str(README), "exec"), namespace)
    assert namespace["result"].config.out is None  # it writes no files
    assert namespace["amps"].shape == (32,)
    assert namespace["counts"].sum() == 1024
    assert namespace["noisy"].shape == (20, 5)
    assert namespace["both"][0].tobytes() == namespace["noisy"].tobytes()
    ising = namespace["ising"]
    assert (ising.kinds, ising.qa, ising.qb, ising.theta, ising.step_marks) == (
        [0, 2, 1, 2], [0, 0, 1, 0], [-1, 1, -1, 1], [0.3, 0.0, -0.4, 0.0], [4])
    assert len(stdout.getvalue().splitlines()) == 2
