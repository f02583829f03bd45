"""Terminal slot board fed from MQTT messages.

Vacant slots render green, occupied red, and slots that have not reported
yet in a dim neutral tone; without color support the cells degrade to the
letters V, O and '-'. The view holds no state beyond what arrived on the
wire, so reconnecting and replaying retained messages rebuilds it exactly.
"""

from __future__ import annotations

GREEN = "\x1b[32m"
RED = "\x1b[31m"
DIM = "\x1b[2m"
RESET = "\x1b[0m"

VACANT, OCCUPIED, UNKNOWN = 0, 1, None

# the board draws a cell for every slot up to the highest number seen, so one
# message naming slot 10**9 would ask for a billion cells; higher slot numbers
# and summary totals are ignored
MAX_SLOTS = 4096


class WatchView:
    def __init__(self, topic_prefix: str = "parking"):
        self.topic_prefix = topic_prefix
        self.slots: dict[int, int] = {}
        self.total_slots: int | None = None
        self.total_vacant: int | None = None
        self.temperature: str | None = None
        self.humidity: str | None = None
        self.gas_ppm: str | None = None
        self.fan: str | None = None
        self.gates: dict[str, str] = {}

    def feed(self, topic: str, payload: bytes) -> None:
        """Apply one message; unknown topics and junk payloads are ignored."""
        if not topic.startswith(self.topic_prefix + "/"):
            return
        levels = topic[len(self.topic_prefix) + 1 :].split("/")
        text = payload.decode("utf-8", errors="replace").strip()
        if levels[0] == "slot" and len(levels) == 3 and levels[2] == "status":
            try:
                slot_no = int(levels[1])
                status = int(text)
            except ValueError:
                return
            if 1 <= slot_no <= MAX_SLOTS and status in (0, 1):
                self.slots[slot_no] = status
        elif levels[0] == "summary" and len(levels) == 1:
            vacant, sep, total = text.partition("/")
            if sep and vacant.isdigit() and total.isdigit():
                try:
                    vacant_no, total_no = int(vacant), int(total)
                except ValueError:  # digits int() does not read ('²'), or too many of them
                    return
                if total_no <= MAX_SLOTS:
                    self.total_vacant, self.total_slots = vacant_no, total_no
        elif levels[0] == "env" and len(levels) == 2:
            if levels[1] == "temperature":
                self.temperature = text
            elif levels[1] == "humidity":
                self.humidity = text
        elif levels[0] == "gas" and len(levels) == 2 and levels[1] == "ppm":
            self.gas_ppm = text
        elif levels[0] == "fan" and len(levels) == 2 and levels[1] == "state":
            self.fan = text
        elif levels[0] == "gate" and len(levels) == 2:
            self.gates[levels[1]] = text

    def _slot_count(self) -> int:
        highest_seen = max(self.slots, default=0)
        return max(self.total_slots or 0, highest_seen)

    def _cell(self, slot_no: int, color: bool) -> str:
        status = self.slots.get(slot_no, UNKNOWN)
        if color:
            if status == VACANT:
                return f"{GREEN}██{RESET}"
            if status == OCCUPIED:
                return f"{RED}██{RESET}"
            return f"{DIM}░░{RESET}"
        if status == VACANT:
            return "V"
        if status == OCCUPIED:
            return "O"
        return "-"

    def render_lines(self, color: bool = True) -> list[str]:
        count = self._slot_count()
        cells = " ".join(f"{i}:{self._cell(i, color)}" for i in range(1, count + 1))
        lines = [f"slots  {cells}" if count else "slots  (none reported yet)"]
        if self.total_vacant is not None and self.total_slots is not None:
            lines.append(f"free   {self.total_vacant}/{self.total_slots}")
        env_bits = []
        if self.temperature is not None:
            env_bits.append(f"{self.temperature} C")
        if self.humidity is not None:
            env_bits.append(f"{self.humidity} %RH")
        if env_bits:
            lines.append("env    " + "  ".join(env_bits))
        gas_bits = []
        if self.gas_ppm is not None:
            gas_bits.append(f"{self.gas_ppm} ppm")
        if self.fan is not None:
            gas_bits.append(f"fan {self.fan}")
        if gas_bits:
            lines.append("gas    " + "  ".join(gas_bits))
        if self.gates:
            gate_bits = "  ".join(f"{name} {state}" for name, state in sorted(self.gates.items()))
            lines.append("gates  " + gate_bits)
        return lines
