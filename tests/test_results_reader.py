"""``read_results_csv`` takes only rows that ``summarize`` can group and
average, each (trial, algorithm, SNR, user) once, and names the line of
the first one it cannot."""

import math

import pytest

import beamckm as bc
from beamckm import cli
from beamckm.harness import CSV_FIELDS

GOOD = "0,alg1,10.0,0,3.0,4,2,4,2,0.0,5.0"
LAST = "1,alg1,10.0,0,5.0,4,2,4,2,0.0,5.0"
SNR = "SNR entries must be numbers or 'inf'"
OVERHEAD = "overhead must be a finite number >= 0"
NAN = "gain ratio and spectral efficiency must not be NaN"
ALGORITHM = "unknown algorithm"
REPEAT = "same trial, algorithm, SNR and user as line 2"


def results_file(tmp_path, row):
    path = tmp_path / "rows.csv"
    path.write_text("\n".join([",".join(CSV_FIELDS), GOOD, row, LAST]) + "\n")
    return path


@pytest.mark.parametrize(
    "row, message",
    [
        pytest.param("0,alg1,nan,0,3.0,4,2,4,2,0.0,5.0", SNR, id="snr-nan"),
        pytest.param("0,alg1,-inf,0,3.0,4,2,4,2,0.0,5.0", SNR, id="snr-minus-inf"),
        pytest.param("0,alg1,10.0,0,-1.0,4,2,4,2,0.0,5.0", OVERHEAD, id="overhead-negative"),
        pytest.param("0,alg1,10.0,0,inf,4,2,4,2,0.0,5.0", OVERHEAD, id="overhead-inf"),
        pytest.param("0,alg1,10.0,0,nan,4,2,4,2,0.0,5.0", OVERHEAD, id="overhead-nan"),
        pytest.param("0,alg1,10.0,0,3.0,4,2,4,2,nan,5.0", NAN, id="gain-nan"),
        pytest.param("0,alg1,10.0,0,3.0,4,2,4,2,0.0,nan", NAN, id="se-nan"),
        pytest.param("0,alg9,10.0,0,3.0,4,2,4,2,0.0,5.0", ALGORITHM, id="algorithm-unknown"),
        pytest.param(GOOD, REPEAT, id="row-repeated"),
        pytest.param("0,alg1,1e1,0,6.0,4,2,4,2,0.0,5.0", REPEAT, id="row-repeated-other-digits"),
    ],
)
def test_row_summarize_cannot_use_is_rejected_with_its_line(tmp_path, row, message):
    with pytest.raises(ValueError, match=f"line 3: {message}"):
        bc.read_results_csv(results_file(tmp_path, row))


def test_sweep_and_reader_reject_an_snr_in_the_same_words(tmp_path):
    with pytest.raises(ValueError) as swept:
        bc.harness._check_sweep(["alg1"], 1, 0, [math.nan])
    with pytest.raises(ValueError) as read:
        bc.read_results_csv(results_file(tmp_path, "0,alg1,nan,0,3.0,4,2,4,2,0.0,5.0"))
    assert str(swept.value) == f"{SNR}, got [nan]"
    assert str(read.value).endswith(f"line 3: {SNR}, got [nan]")


def test_values_run_trials_writes_are_read_back(tmp_path):
    """+inf SNR and spectral efficiency, and a chosen beam of zero gain
    (-inf dB), are values ``run_trials`` writes."""
    records = bc.read_results_csv(results_file(tmp_path, "1,alg1,inf,0,3.0,4,2,4,2,-inf,inf"))
    assert records[1].snr_db == math.inf
    assert (records[1].gain_ratio_db, records[1].se_bps_hz) == (-math.inf, math.inf)


def summarize_fails_in_one_line(tmp_path, capsys, row, message):
    path = results_file(tmp_path, row)
    capsys.readouterr()
    assert cli.main(["summarize", "--in", str(path), "--out", str(tmp_path / "summary.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("beamckm: error: ") and f"line 3: {message}" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "summary.csv").exists()


def test_cli_summarize_fails_in_one_line(tmp_path, capsys):
    summarize_fails_in_one_line(tmp_path, capsys, "0,alg1,nan,0,3.0,4,2,4,2,0.0,5.0", SNR)


@pytest.mark.parametrize(
    "row, message",
    [
        pytest.param("0,alg9,10.0,0,3.0,4,2,4,2,0.0,5.0", ALGORITHM, id="algorithm-unknown"),
        pytest.param(GOOD, REPEAT, id="row-repeated"),
    ],
)
def test_cli_summarize_names_an_unknown_algorithm_or_a_repeat(tmp_path, capsys, row, message):
    summarize_fails_in_one_line(tmp_path, capsys, row, message)
