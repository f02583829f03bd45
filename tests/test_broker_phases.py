"""scripts/broker_phases.py at its smallest size: the set-up and one job."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "broker_phases.py"


def test_one_job_times_every_packet_type_and_passes_the_rig_checks():
    done = subprocess.run([sys.executable, str(SCRIPT), "--seed", "3", "--jobs", "1"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    header, *lines = done.stdout.splitlines()
    assert header.split()[-2:] == ["gcs", "gc_s"]
    rows = {tuple(line.split()[:2]): line.split()[2:] for line in lines}
    # 2,055 retained publishes, then 200 sessions that each replay
    assert rows["setup", "PUBLISH"][0] == "2055"
    assert rows["setup", "SUBSCRIBE+replay"][0] == "200"
    # one job: 200 publishes and 8 reconnects
    assert rows["jobs", "PUBLISH"][0] == "200"
    assert rows["jobs", "SUBSCRIBE+replay"][0] == "8"
    assert rows["all", "PUBACK"][3] == "1.00"
    for kind in ("PUBLISH", "PUBACK", "SUBSCRIBE+replay"):
        calls, seconds, us_per_call, over_puback, *_ = rows["all", kind]
        assert int(calls) > 0 and float(us_per_call) > 0 and float(over_puback) > 0
    # replay copies: every PUBLISH a SUBSCRIBE returned, and the time per copy
    assert rows["setup", "SUBSCRIBE+replay"][4] == "205480"
    assert rows["jobs", "SUBSCRIBE+replay"][4] == "8223"
    assert rows["all", "SUBSCRIBE+replay"][4] == "213703"
    assert float(rows["all", "SUBSCRIBE+replay"][5]) > 0
    assert rows["all", "PUBLISH"][4:6] == ["-", "-"]
    # collections inside each type's calls, and their seconds (the times above are net of them)
    for kind in ("PUBLISH", "PUBACK", "SUBSCRIBE+replay"):
        collections, gc_s = rows["all", kind][6:]
        assert int(collections) >= 0 and float(gc_s) >= 0
        assert sum(int(rows[phase, kind][6]) for phase in ("setup", "jobs")) == int(collections)
