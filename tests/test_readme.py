import re
from pathlib import Path

from srloc.psf import GaussianPsf, gaussian_overlap

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    # the blocks share one namespace, as a reader would paste them in turn
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, flags=re.M | re.S))
    assert len(blocks) >= 2
    psf = GaussianPsf(k=1.0, z_r=2.0)
    namespace = {"my_overlap_fn": lambda s, p: gaussian_overlap(psf, s, p)}
    for block in blocks:
        padding = "\n" * text.count("\n", 0, block.start(1))  # README line numbers in tracebacks
        exec(compile(padding + block.group(1), str(README), "exec"), namespace)
