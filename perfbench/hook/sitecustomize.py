"""Start-up hook of traced server processes (see ``perfbench_spans``).

Python imports ``sitecustomize`` from ``PYTHONPATH`` at start-up; it
installs the span recorders only when ``PERFBENCH_SPANS`` is set.
"""

import perfbench_spans

perfbench_spans.install()
