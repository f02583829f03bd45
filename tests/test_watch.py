from parksim.watch import DIM, GREEN, RED, WatchView


def feed_slots(view, states):
    for i, flag in enumerate(states, start=1):
        view.feed(f"parking/slot/{i}/status", str(flag).encode())


class TestSlotBoard:
    def test_one_occupied_three_vacant_colors(self):
        view = WatchView()
        feed_slots(view, [1, 0, 0, 0])
        board = view.render_lines(color=True)[0]
        assert board.index(RED) < board.index(GREEN)
        assert board.count(GREEN) == 3
        assert board.count(RED) == 1

    def test_no_messages_renders_placeholder(self):
        view = WatchView()
        assert "none reported" in view.render_lines(color=True)[0]

    def test_unreported_slots_neutral(self):
        view = WatchView()
        view.feed("parking/summary", b"4/4")
        board = view.render_lines(color=True)[0]
        assert board.count(DIM) == 4
        letters = view.render_lines(color=False)[0]
        assert letters.count("-") >= 4

    def test_letter_fallback(self):
        view = WatchView()
        feed_slots(view, [1, 0, 0, 0])
        board = view.render_lines(color=False)[0]
        assert "1:O" in board
        assert "2:V" in board
        assert "\x1b" not in board

    def test_summary_footer(self):
        view = WatchView()
        view.feed("parking/summary", b"3/4")
        lines = view.render_lines(color=False)
        assert any("free   3/4" == line for line in lines)

    def test_env_gas_fan_lines(self):
        view = WatchView()
        view.feed("parking/env/temperature", b"30.2")
        view.feed("parking/env/humidity", b"70.0")
        view.feed("parking/gas/ppm", b"3.25")
        view.feed("parking/fan/state", b"on")
        view.feed("parking/gate/entrance", b"open")
        text = "\n".join(view.render_lines(color=False))
        assert "30.2 C" in text
        assert "70.0 %RH" in text
        assert "3.25 ppm" in text
        assert "fan on" in text
        assert "entrance open" in text


class TestRobustness:
    def test_foreign_topics_ignored(self):
        view = WatchView()
        view.feed("other/slot/1/status", b"1")
        view.feed("parkingx/slot/1/status", b"1")
        assert view.slots == {}

    def test_junk_payloads_ignored(self):
        view = WatchView()
        view.feed("parking/slot/1/status", b"banana")
        view.feed("parking/slot/zero/status", b"1")
        view.feed("parking/summary", b"not-a-summary")
        assert view.slots == {}
        assert view.total_slots is None

    def test_summary_subtopics_ignored(self):
        view = WatchView()
        view.feed("parking/summary", b"3/8")
        view.feed("parking/summary/extra", b"0/1")
        view.feed("parking/summary/", b"0/1")
        assert (view.total_vacant, view.total_slots) == (3, 8)
        assert "free   3/8" in view.render_lines(color=False)

    def test_rebuild_from_retained_equals_incremental(self):
        # a reconnect replays retained state; the board must come out the same
        updates = [
            ("parking/slot/1/status", b"1"),
            ("parking/slot/2/status", b"0"),
            ("parking/slot/1/status", b"0"),
            ("parking/slot/3/status", b"1"),
            ("parking/summary", b"2/3"),
        ]
        incremental = WatchView()
        for topic, payload in updates:
            incremental.feed(topic, payload)
        retained_only = WatchView()
        final = {}
        for topic, payload in updates:
            final[topic] = payload
        for topic, payload in final.items():
            retained_only.feed(topic, payload)
        assert incremental.render_lines(False) == retained_only.render_lines(False)
