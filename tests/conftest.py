import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
# The benchmark's generators and oracle (the perfbench package).
sys.path.append(str(Path(__file__).parents[1]))

# Tests that start `python -m aalguard` find the package as the test
# process does (pyproject's pytest `pythonpath`), with no PYTHONPATH set.
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [
    str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]))

DATA_DIR = Path(__file__).parent / "data"
