"""Peak memory of the .vtok read, ``vtcomp compress``, ``vtcomp ablate`` and
``generate``.

The read and compress cases run in a child process, which reports how far
its high-water RSS (``VmHWM``) rose past its resident size after the
import.  The input is about 50 MB, large enough that the payload dominates
that rise.  The child's ``ru_maxrss`` would not do: Linux carries the
high-water mark of the process that started a child across its exec, so it
can read the size of the test process instead.  The ablate and generate
cases read the ``tracemalloc`` peak of an in-process run, which counts
numpy's buffers.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import vtcomp
from vtcomp import SyntheticSpec, cli, generate
from vtcomp.formats import HEADER, MAGIC, VERSION

SHAPE = (32, 196, 2048)
PAYLOAD = 4 * SHAPE[0] * SHAPE[1] * SHAPE[2]
# Many frames of few tokens: the extra scoring pass's temporaries are a
# clear share of the payload.
ABLATE_SHAPE = (128, 64, 896)
ABLATE_PAYLOAD = 4 * ABLATE_SHAPE[0] * ABLATE_SHAPE[1] * ABLATE_SHAPE[2]
GENERATE_SHAPE = (8, 64, 896)

CHILD = """
import sys
from vtcomp import cli, formats

def status_bytes(field):
    with open("/proc/self/status") as fh:
        return int(fh.read().split(field + ":")[1].split()[0]) * 1024

before = status_bytes("VmRSS")
if sys.argv[1] == "read":
    formats.read_vtok(sys.argv[2])
elif cli.main(["compress", "-i", sys.argv[2], "-o", sys.argv[3]]) != 0:
    sys.exit("compress failed")
print(status_bytes("VmHWM") - before)
"""

pytestmark = [
    pytest.mark.skipif(not sys.platform.startswith("linux"),
                       reason="reads VmRSS and VmHWM from /proc/self/status"),
    pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                       reason="numpy 1.x copies the payload a second time"),
]


def random_file(path, shape):
    rng = np.random.default_rng(0)
    with open(path, "wb") as fh:  # frame by frame, so this process stays small
        fh.write(HEADER.pack(MAGIC, VERSION, *shape))
        for _ in range(shape[0]):
            fh.write(rng.standard_normal(shape[1:], dtype=np.float32).tobytes())
    return path


@pytest.fixture(scope="module")
def wide_file(tmp_path_factory):
    return random_file(tmp_path_factory.mktemp("memory") / "wide.vtok", SHAPE)


def growth(*argv) -> int:
    env = dict(os.environ, PYTHONPATH=str(Path(vtcomp.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", CHILD, *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.strip().splitlines()[-1])


def test_read_holds_one_copy_of_the_payload(wide_file):
    assert growth("read", wide_file) <= 1.25 * PAYLOAD


def test_compress_frees_the_input_before_padding(wide_file, tmp_path):
    out = tmp_path / "c.vtok"
    assert growth("compress", wide_file, out) <= 1.45 * PAYLOAD
    assert out.stat().st_size > HEADER.size


def test_ablate_frees_the_base_rows_before_the_extra_pass(tmp_path):
    # The base compress keeps a quarter of the rows at the default ratio.
    # Held through the pass that scores the other windows, they put the
    # peak at about 1.43x the payload; freed first, it is the input plus one
    # kept-row copy, reached at the base run's gather.
    path = random_file(tmp_path / "ablate.vtok", ABLATE_SHAPE)
    tracemalloc.start()
    try:
        assert cli.main(["ablate", "-i", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.32 * ABLATE_PAYLOAD


@pytest.mark.parametrize("model, frames", [("iid", 1.5), ("clustered", 1.5), ("outlier", 3.5)])
def test_generate_draws_every_frame_into_one_buffer(model, frames):
    # Beyond its float32 block, generate holds one float64 frame buffer; the
    # outlier frame adds its orthogonal draw and the projection removed from
    # it.  A float64 temporary per draw, product and sum would put the peak
    # at 2.0 (iid), 3.2 (clustered) and 4.2 (outlier) frames.
    spec = SyntheticSpec(*GENERATE_SHAPE, model=model, num_clusters=2, noise_sigma=0.1,
                         outlier_index=3)
    generate(SyntheticSpec(2, 3, 4, model=model))  # numpy.random's lazy import stays out
    tracemalloc.start()
    try:
        generate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    t, m, d = GENERATE_SHAPE
    assert peak - 4 * t * m * d <= frames * 8 * m * d
