"""What importing the package loads, checked in a fresh interpreter."""

import subprocess
import sys


def test_package_loads_no_multiprocessing():
    # The clustering fill runs in one process, so nothing the package,
    # the service or the case-study driver imports should pull in
    # ``multiprocessing`` (its import alone costs the service's start).
    code = (
        "import sys\n"
        "import repro, repro.service, repro.analysis.experiments\n"
        "print(sorted(name for name in sys.modules\n"
        "             if name.split('.')[0] == 'multiprocessing'))\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
