import json
import re

import numpy as np
import pytest

from roomwave.cli import GRADCHECK_TOLERANCE, main

TINY_CONFIG = """\
seed: 7
simulation:
  max_image_order: 4
array:
  mic_count: 12
  validation_count: 4
dictionary:
  plane_wave_count: 40
boundary:
  count: 20
optimizer:
  max_line_searches: 20
"""


@pytest.fixture
def simulated(tmp_path):
    config = tmp_path / "tiny.yaml"
    config.write_text(TINY_CONFIG, encoding="utf-8")
    data = tmp_path / "data"
    assert main(["simulate", str(config), str(data)]) == 0
    return config, data


def test_simulate_writes_inputs(simulated):
    _, data = simulated
    for name in ("snapshot.txt", "microphones.txt", "boundary.txt"):
        assert (data / name).stat().st_size > 0


def test_reconstruct_after_simulate(simulated, tmp_path):
    config, data = simulated
    out = tmp_path / "out"
    code = main(["reconstruct", str(data / "snapshot.txt"),
                 str(data / "boundary.txt"), str(config), str(out)])
    assert code == 0

    rows = np.loadtxt(out / "reconstruction.txt", ndmin=2)
    assert rows.shape == (12, 6)       # x y z re_mean im_mean std
    assert np.all(np.isfinite(rows))
    assert np.all(rows[:, 5] >= 0)

    theta = json.loads((out / "theta.json").read_text(encoding="utf-8"))
    assert np.isfinite(theta["objective"])
    assert theta["noise_variance"] > 0
    assert (out / "trace.csv").stat().st_size > 0


def test_gradcheck_passes(capsys):
    assert main(["gradcheck", "--instances", "4", "--thetas", "3"]) == 0
    match = re.search(r"max relative gradient error: (\S+)",
                      capsys.readouterr().out)
    assert float(match.group(1)) < GRADCHECK_TOLERANCE
