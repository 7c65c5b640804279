"""Tests for the MOSS subject: algorithm correctness and bug triggers."""

import random

from repro.subjects import base
from repro.subjects.moss import MossSubject, program, reference
from repro.subjects.moss.generator import generate_job


def _clean_job(files, match_comment=False, kgram=3, window=4, gap=4):
    return {
        "heap_seed": 7,
        "oom_rate": 0.0,
        "config": {
            "kgram": kgram,
            "window": window,
            "gap": gap,
            "match_comment": match_comment,
        },
        "files": files,
    }


def _file(tokens, language=2):
    return {"language": language, "tokens": list(tokens)}


def _run(job):
    base.begin_truth_capture()
    try:
        out = program.main(job)
        crashed = False
    except Exception:
        out = None
        crashed = True
    bugs = base.end_truth_capture()
    return out, crashed, bugs


class TestAlgorithm:
    def test_identical_files_fully_match(self):
        tokens = [random.Random(1).randint(1, 200) for _ in range(60)]
        job = _clean_job([_file(tokens), _file(tokens)])
        out, crashed, bugs = _run(job)
        assert not crashed and not bugs
        assert len(out) == 1
        i, j, score, passages = out[0]
        assert (i, j) == (0, 1)
        assert score > 0 and passages >= 1

    def test_disjoint_files_do_not_match(self):
        rng = random.Random(2)
        f1 = _file([rng.randint(1, 100) for _ in range(50)])
        f2 = _file([rng.randint(101, 200) for _ in range(50)])
        out, crashed, bugs = _run(_clean_job([f1, f2]))
        assert not crashed
        # Hash collisions can create tiny incidental scores; a genuine
        # match would share many fingerprints.
        assert all(score <= 3 for (_i, _j, score, _p) in out)

    def test_program_matches_reference_on_clean_inputs(self):
        rng = random.Random(3)
        for _ in range(25):
            nfiles = rng.randint(2, 4)
            shared = [rng.randint(1, 200) for _ in range(40)]
            files = []
            shared_budget = 2  # keep the passage table comfortably small
            for _ in range(nfiles):
                toks = [rng.randint(1, 200) for _ in range(rng.randint(30, 90))]
                if shared_budget > 0 and rng.random() < 0.6:
                    shared_budget -= 1
                    pos = rng.randint(0, len(toks))
                    toks = toks[:pos] + shared + toks[pos:]
                files.append(_file(toks))
            job = _clean_job(files, kgram=rng.randint(3, 5), window=rng.randint(4, 8))
            out, crashed, bugs = _run(job)
            assert not crashed, "clean inputs must never crash"
            assert not bugs
            assert out == reference.reference_output(job)

    def test_winnow_density_guarantee(self):
        """Winnowing selects at least one fingerprint per window."""
        rng = random.Random(4)
        hashes = [rng.randint(0, 2047) for _ in range(100)]
        fps = reference.winnow(hashes, 5)
        positions = [p for p, _h in fps]
        for i in range(len(hashes) - 5 + 1):
            assert any(i <= p < i + 5 for p in positions)

    def test_winnow_matches_buggy_implementation(self):
        rng = random.Random(5)
        hashes = [rng.randint(0, 2047) for _ in range(80)]

        class FakeBuf:
            def read(self, i):
                return tokens[i]

        tokens = [rng.randint(1, 200) for _ in range(60)]
        assert reference.kgram_hashes(tokens, 4) == program.kgram_hashes(
            FakeBuf(), len(tokens), 4
        )
        assert reference.winnow(hashes, 6) == program.winnow(hashes, 6)


class TestBugTriggers:
    def test_moss1_token_overrun(self):
        big = _file([1] * (program.TOKEN_CAP + 40))
        _, _, bugs = _run(_clean_job([big, _file([2] * 30)]))
        assert "moss1" in bugs

    def test_moss2_missing_oom_check(self):
        # Long shared passage (detail record) + certain OOM injection.
        shared = list(range(1, 120))
        job = _clean_job([_file(shared * 2), _file(shared * 2)])
        job["oom_rate"] = 1.0
        out, crashed, bugs = _run(job)
        assert "moss2" in bugs
        assert crashed  # NULL detail pointer is dereferenced

    def test_moss3_passage_overrun(self):
        rng = random.Random(6)
        files = []
        shared = [[rng.randint(1, 200) for _ in range(30)] for _ in range(30)]
        for k in range(10):
            toks = [rng.randint(1, 200) for _ in range(40)]
            for s in shared[k * 3 : k * 3 + 3]:
                toks += s
            files.append(_file(toks))
        # every file also shares a block with the next one
        for k in range(9):
            extra = [rng.randint(1, 200) for _ in range(35)]
            files[k]["tokens"] += extra
            files[k + 1]["tokens"] += extra
        _, _, bugs = _run(_clean_job(files))
        assert "moss3" in bugs or "moss6" in bugs  # heavy sharing regime

    def test_moss4_file_table_overrun(self):
        files = [_file([i] * 30) for i in range(program.FILE_CAP + 3)]
        _, _, bugs = _run(_clean_job(files))
        assert "moss4" in bugs

    def test_moss5_null_language_handler(self):
        job = _clean_job([_file([1] * 30, language=18)])
        out, crashed, bugs = _run(job)
        assert "moss5" in bugs
        assert crashed

    def test_moss6_head_removal_dangling_bucket(self):
        rng = random.Random(8)
        boiler = [rng.randint(1, 200) for _ in range(20)]
        files = []
        for _ in range(9):
            toks = [rng.randint(1, 200) for _ in range(50)] + boiler
            files.append(_file(toks))
        _, _, bugs = _run(_clean_job(files))
        assert "moss6" in bugs

    def test_moss7_harmless_stats_overrun(self):
        toks = [1, 2, 3, 4, 5] * 60  # 300 tokens/file
        job = _clean_job([_file(toks), _file(toks)])
        out, crashed, bugs = _run(job)
        assert "moss7" in bugs
        assert not crashed  # never independently causes a failure

    def test_moss8_never_triggered_by_generator(self):
        rng = random.Random(9)
        for _ in range(60):
            job = generate_job(rng)
            for f in job["files"]:
                assert max(f["tokens"], default=0) <= 1000000

    def test_moss9_consecutive_comments_wrong_output(self):
        toks = [10, -5, -6, 11, 12, 13, 14, 15, 16, 17, 18] * 6
        job = _clean_job([_file(toks), _file(toks)], match_comment=True)
        out, crashed, bugs = _run(job)
        assert "moss9" in bugs
        assert not crashed
        assert out != reference.reference_output(job)


class TestSubjectProtocol:
    def test_oracle_differential(self):
        subject = MossSubject()
        rng = random.Random(11)
        job = subject.generate_input(rng)
        try:
            out = program.main(job)
        except Exception:
            return  # crashing runs never reach the oracle
        assert subject.oracle(job, out) == (out == reference.reference_output(job))

    def test_source_is_instrumentable(self):
        from repro.instrument.tracer import instrument_source

        subject = MossSubject()
        prog = instrument_source(subject.source(), "moss-test")
        assert prog.table.n_predicates > 1000
