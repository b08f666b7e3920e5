"""Corpus IO validation and deterministic synthetic generation."""
import json
from json.encoder import encode_basestring
from pathlib import Path

import pytest
from conftest import synthesize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from notepheno import corpus
from notepheno.corpus import (
    CorpusError,
    SynthSpec,
    _atomic_write,
    _parse_line,
    encode_record,
    iter_documents,
    load_labels,
    load_patients,
    reference_map,
    write_cohort,
)
from notepheno.prompting import builtin_profiles


def _write_lines(path: Path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def _valid_files(tmp_path):
    docs = tmp_path / "documents.jsonl"
    pats = tmp_path / "patients.jsonl"
    labs = tmp_path / "labels.jsonl"
    _write_lines(pats, [{"patient_id": "p1", "admit_date": "2015-01-02", "attributes": {"age": "61"}}])
    _write_lines(
        docs,
        [
            {
                "patient_id": "p1",
                "doc_id": "d1",
                "doc_type": "DischargeSummary",
                "timestamp": "2015-01-02T08:00:00",
                "text": "Stable.",
            }
        ],
    )
    _write_lines(labs, [{"patient_id": "p1", "condition": "diabetes", "registry_label": 1, "icd_label": 0}])
    return docs, pats, labs


def _checked_patients(pats, labs):
    """The patients of a patients file, once the labels file is read and checked against them."""
    patients = load_patients(pats)
    load_labels(labs, patients)
    return patients


def test_load_roundtrip(tmp_path):
    docs, pats, labs = _valid_files(tmp_path)
    patients = load_patients(pats)
    labels = load_labels(labs, patients)
    notes = list(iter_documents(docs, patients))
    assert patients["p1"].attributes["age"] == "61"
    assert notes[0].doc_type == "DischargeSummary"
    assert labels[0].registry_label == 1
    out = tmp_path / "out"
    out.mkdir()
    write_cohort(notes, patients, labels, out / "d.jsonl", out / "p.jsonl", out / "l.jsonl")
    again = load_patients(out / "p.jsonl")
    assert again == patients
    assert load_labels(out / "l.jsonl", again) == labels
    assert list(iter_documents(out / "d.jsonl", again)) == notes


def test_attribute_values_survive_load_and_write_as_the_json_gives_them(tmp_path):
    record = {"patient_id": "p1", "admit_date": "2015-01-02",
              "attributes": {"age": [61], "sex": None, "weight": 61.5, "notes": {"a": "b"}, "smoker": False}}
    _write_lines(tmp_path / "patients.jsonl", [record])
    patients = load_patients(tmp_path / "patients.jsonl")
    assert patients["p1"].attributes == record["attributes"]
    write_cohort((), patients, (), tmp_path / "d.jsonl", tmp_path / "p.jsonl", tmp_path / "l.jsonl")
    written = [json.loads(line) for line in (tmp_path / "p.jsonl").read_text(encoding="utf-8").splitlines()]
    assert written == [record]


def test_iter_documents_streams_the_documents_and_reads_only_the_positions_asked(tmp_path):
    docs, pats, labs = _valid_files(tmp_path)
    record = json.loads(docs.read_text())
    lines = [json.dumps(dict(record, doc_id=f"d{i}", text=f"Note {i}.")) for i in range(4)]
    lines[2] = "\n" + "{not json"  # a blank line, which has no position, then a broken one
    docs.write_text("\n".join(lines) + "\n", encoding="utf-8")
    patients = load_patients(pats)
    stream = iter_documents(docs, patients)
    assert [doc.doc_id for doc in (next(stream), next(stream))] == ["d0", "d1"]  # read as asked
    with pytest.raises(CorpusError, match="documents.jsonl line 4: invalid record"):
        next(stream)
    assert [doc.text for doc in iter_documents(docs, patients, only={1, 3})] == ["Note 1.", "Note 3."]
    lines[2] = lines[0]  # a duplicate of position 0, and so the third document of the file
    docs.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="documents.jsonl line 3: duplicate doc_id 'd0'"):
        list(iter_documents(docs, patients))
    assert [doc.doc_id for doc in iter_documents(docs, patients, only={2, 3})] == ["d0", "d3"]
    del lines[2]
    docs.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert [doc.doc_id for doc in iter_documents(docs, patients)] == ["d0", "d1", "d3"]


def test_reference_map_registry_and_icd(tmp_path):
    _, pats, labs = _valid_files(tmp_path)
    labels = load_labels(labs, load_patients(pats))
    assert reference_map(labels, "diabetes") == {"p1": 1}
    assert reference_map(labels, "diabetes", icd=True) == {"p1": 0}


def test_duplicate_doc_id_reports_line(tmp_path):
    docs, pats, labs = _valid_files(tmp_path)
    record = json.loads(docs.read_text().strip())
    _write_lines(docs, [record, record])
    with pytest.raises(CorpusError, match="line 2.*duplicate doc_id"):
        list(iter_documents(docs, _checked_patients(pats, labs)))


def test_unknown_patient_in_documents(tmp_path):
    docs, pats, labs = _valid_files(tmp_path)
    record = json.loads(docs.read_text().strip())
    record["patient_id"] = "ghost"
    record["doc_id"] = "d2"
    _write_lines(docs, [record])
    with pytest.raises(CorpusError, match="unknown patient_id 'ghost'"):
        list(iter_documents(docs, _checked_patients(pats, labs)))


def test_malformed_json_names_file_and_line(tmp_path):
    docs, pats, labs = _valid_files(tmp_path)
    docs.write_text("not json\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="documents.jsonl line 1"):
        list(iter_documents(docs, _checked_patients(pats, labs)))


def test_bad_label_value_rejected(tmp_path):
    docs, pats, labs = _valid_files(tmp_path)
    _write_lines(labs, [{"patient_id": "p1", "condition": "diabetes", "registry_label": 2}])
    with pytest.raises(CorpusError, match="labels must be 0 or 1"):
        _checked_patients(pats, labs)


def test_duplicate_label_rejected(tmp_path):
    docs, pats, labs = _valid_files(tmp_path)
    record = {"patient_id": "p1", "condition": "diabetes", "registry_label": 1}
    _write_lines(labs, [record, record])
    with pytest.raises(CorpusError, match="duplicate label"):
        _checked_patients(pats, labs)


_REQUIRED = {
    "patients.jsonl": ("patient_id", "admit_date"),
    "documents.jsonl": ("patient_id", "doc_id", "doc_type", "timestamp"),
    "labels.jsonl": ("patient_id", "condition"),
}


@pytest.mark.parametrize("name,field", [(n, f) for n, fields in _REQUIRED.items() for f in fields])
@pytest.mark.parametrize("value", ["absent", None, ""])
def test_a_missing_or_empty_field_names_the_file_line_and_field(tmp_path, name, field, value):
    files = _valid_files(tmp_path)
    path = tmp_path / name
    record = json.loads(path.read_text())
    if value == "absent":
        del record[field]
    else:
        record[field] = value
    _write_lines(path, [record])
    with pytest.raises(CorpusError, match=f"^{name} line 1: missing field '{field}'$"):
        list(iter_documents(files[0], _checked_patients(*files[1:])))


@pytest.mark.parametrize(
    "name,edit,message",
    [
        ("documents.jsonl", {"timestamp": "noon"}, "line 1: bad timestamp 'noon'"),
        ("documents.jsonl", {"timestamp": 5}, "line 1: timestamp must be a string, got 5"),
        ("documents.jsonl", {"text": None}, "line 1: text must be a string, got None"),
        ("documents.jsonl", {"text": 7}, "line 1: text must be a string, got 7"),
        ("patients.jsonl", {"admit_date": "2015-13-01"}, "line 1: bad date '2015-13-01'"),
        ("patients.jsonl", {"attributes": ["age", "61"]}, "line 1: attributes must be a map"),
        ("labels.jsonl", {"registry_label": None}, "line 1: labels must be 0 or 1"),
        ("labels.jsonl", {"icd_label": 2}, "line 1: labels must be 0 or 1"),
        ("labels.jsonl", {"registry_label": True}, "line 1: labels must be 0 or 1"),
        ("labels.jsonl", {"registry_label": 1.0}, "line 1: labels must be 0 or 1"),
    ],
)
def test_a_bad_corpus_value_names_the_file_and_line(tmp_path, name, edit, message):
    files = _valid_files(tmp_path)
    path = tmp_path / name
    _write_lines(path, [{**json.loads(path.read_text()), **edit}])
    with pytest.raises(CorpusError, match=f"^{name} {message}$"):
        list(iter_documents(files[0], _checked_patients(*files[1:])))


@pytest.mark.parametrize(
    "name,edit,message",
    [
        ("patients.jsonl", {"patient_id": 5}, "patient_id must be a string, got 5"),
        ("documents.jsonl", {"doc_id": 7}, "doc_id must be a string, got 7"),
        ("documents.jsonl", {"doc_type": ["DischargeSummary"]},
         "doc_type must be a string, got ['DischargeSummary']"),
        ("labels.jsonl", {"condition": ["ami"]}, "condition must be a string, got ['ami']"),
    ],
)
def test_a_corpus_id_that_is_not_a_string_names_the_file_line_and_field(tmp_path, name, edit, message):
    files = _valid_files(tmp_path)
    path = tmp_path / name
    first = json.loads(path.read_text())
    # the bad value is on line 2, in a record that is otherwise a valid second one
    new_key = {"patients.jsonl": {"patient_id": "p2"}, "documents.jsonl": {"doc_id": "d2"},
               "labels.jsonl": {"condition": "ami"}}[name]
    _write_lines(path, [first, {**first, **new_key, **edit}])
    with pytest.raises(CorpusError) as exc:
        list(iter_documents(files[0], _checked_patients(*files[1:])))
    assert str(exc.value) == f"{name} line 2: {message}"


def test_the_first_timestamp_decides_whether_a_documents_file_carries_utc_offsets(tmp_path):
    docs, pats, _ = _valid_files(tmp_path)
    first = json.loads(docs.read_text())
    second = {**first, "doc_id": "d2", "timestamp": "2015-01-02T09:00:00"}
    del second["text"]  # an absent text is an empty note
    _write_lines(docs, [first, second])
    patients = load_patients(pats)
    assert [doc.text for doc in iter_documents(docs, patients)] == ["Stable.", ""]
    _write_lines(docs, [{**first, "timestamp": "2015-01-02T08:00:00+01:00"}, second])
    with pytest.raises(CorpusError, match=r"^documents.jsonl line 2: timestamp '2015-01-02T09:00:00' lacks "
                                          r"a UTC offset, unlike the file's first timestamp$"):
        list(iter_documents(docs, patients))


def test_a_duplicate_patient_and_a_label_without_registry_label_are_refused(tmp_path):
    docs, pats, labs = _valid_files(tmp_path)
    record = json.loads(pats.read_text())
    pats.write_text("\n" + json.dumps(record) + "\n\n" + json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="^patients.jsonl line 4: duplicate patient_id 'p1'$"):
        _checked_patients(pats, labs)
    _write_lines(pats, [record])
    _write_lines(labs, [{"patient_id": "p1", "condition": "diabetes", "icd_label": 1}])
    with pytest.raises(CorpusError, match="^labels.jsonl line 1: missing field 'registry_label'$"):
        _checked_patients(pats, labs)


def test_synth_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(n_patients=0, prevalence={"diabetes": 0.3})
    with pytest.raises(ValueError):
        SynthSpec(n_patients=10, prevalence={"diabetes": 1.5})
    with pytest.raises(ValueError):
        SynthSpec(n_patients=10, prevalence={"diabetes": 0.3}, docs_per_patient=(3, 2))


def test_generate_synthetic_deterministic(tmp_path):
    spec = SynthSpec(n_patients=50, prevalence={"diabetes": 0.3, "ami": 0.2}, seed=11)
    profiles = builtin_profiles()
    drawn_a = synthesize(spec, profiles)
    drawn_b = synthesize(spec, profiles)
    assert drawn_a[1] == drawn_b[1]
    for name, (patients, labels, notes) in (("a", drawn_a), ("b", drawn_b)):
        d = tmp_path / name
        d.mkdir()
        write_cohort(notes, patients, labels, d / "d.jsonl", d / "p.jsonl", d / "l.jsonl")
    for fname in ("d.jsonl", "p.jsonl", "l.jsonl"):
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()


# The second write fails at the 10th document, on its doc_id, or at the 1st
# patient, on its admit_date: strings that no earlier line holds.
@pytest.mark.parametrize("failing", ["document", "patient"])
def test_a_failed_write_cohort_leaves_the_earlier_files_whole(tmp_path, monkeypatch, failing):
    paths = [tmp_path / name for name in ("documents.jsonl", "patients.jsonl", "labels.jsonl")]
    spec = SynthSpec(n_patients=20, prevalence={"diabetes": 0.3}, docs_per_patient=(3, 3), seed=1)
    patients, labels, notes = synthesize(spec, builtin_profiles())
    write_cohort(notes, patients, labels, *paths)
    before = [path.read_bytes() for path in paths]
    other = SynthSpec(n_patients=20, prevalence={"diabetes": 0.3}, docs_per_patient=(3, 3), seed=2)
    patients, labels, notes = synthesize(other, builtin_profiles())
    target = notes[9].doc_id if failing == "document" else patients["P00000"].admit_date.isoformat()

    def failing_encode(text):
        if text == target:
            raise OSError("disk full")
        return encode_basestring(text)

    monkeypatch.setattr(corpus, "encode_basestring", failing_encode)
    with pytest.raises(OSError, match="disk full"):
        write_cohort(notes, patients, labels, *paths)
    assert [path.read_bytes() for path in paths] == before
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in paths)


def test_a_failed_streamed_write_leaves_the_old_file_whole(tmp_path):
    path = tmp_path / "records.jsonl"
    _atomic_write([(path, (f"{n}\n" for n in range(10)))])
    before = path.read_bytes()

    def records():
        for n in range(5):
            yield f"{-n} {'x' * 10_000}\n"
        # the five records went to the temporary file, not to `path`
        assert path.with_name("records.jsonl.tmp").exists()
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        _atomic_write([(path, records())])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["records.jsonl"]


def test_generate_synthetic_positive_patient_has_evidence():
    spec = SynthSpec(n_patients=80, prevalence={"diabetes": 0.5}, seed=5)
    _, labels, notes = synthesize(spec, builtin_profiles())
    for pid, label in reference_map(labels, "diabetes").items():
        if label:
            text = " ".join(d.text for d in notes if d.patient_id == pid)
            assert "diabetes" in text.lower()


def test_unread_files_are_neither_required_nor_checked(tmp_path):
    docs, pats, labs = _valid_files(tmp_path)
    docs.write_text("not json\n", encoding="utf-8")
    labs.unlink()
    patients = load_patients(pats)
    assert list(patients) == ["p1"]
    with pytest.raises(CorpusError, match="documents.jsonl line 1"):
        list(iter_documents(docs, patients))


def test_unread_documents_keep_the_label_checks(tmp_path):
    docs, pats, labs = _valid_files(tmp_path)
    docs.unlink()
    assert reference_map(load_labels(labs, load_patients(pats)), "diabetes") == {"p1": 1}
    _write_lines(labs, [{"patient_id": "ghost", "condition": "diabetes", "registry_label": 1}])
    with pytest.raises(CorpusError, match="labels.jsonl line 1: unknown patient_id 'ghost'"):
        _checked_patients(pats, labs)


_texts = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12)
_numbers = st.one_of(st.none(), st.floats(), st.integers(-10**6, 10**6))
_label_records = st.fixed_dictionaries(
    {
        "patient_id": _texts,
        "condition": _texts,
        "label": st.integers(0, 1),
        "mode": st.sampled_from(["prompt1", "prompt2", "merged"]),
        "evidence_doc_ids": st.lists(_texts, max_size=3),
        "measurements": st.lists(
            st.fixed_dictionaries(
                {
                    "analyte": _texts,
                    "raw_value": _numbers,
                    "raw_unit": st.one_of(st.none(), _texts),
                    "normalized_value": _numbers,
                    "systolic": _numbers,
                    "diastolic": _numbers,
                }
            ),
            max_size=3,
        ),
    }
)


@settings(max_examples=200, deadline=None)
@given(_label_records)
def test_encode_record_matches_json_dumps(record):
    assert encode_record(record) == json.dumps(record, ensure_ascii=False, sort_keys=True)


def _reference_parse_line(raw, path, lineno):
    """`_parse_line` without the direct scanner call, and checking every
    record, not only the lines with an escape, for a string UTF-8 cannot
    encode."""
    try:
        record = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CorpusError(f"{path.name} line {lineno}: invalid record ({exc.msg})") from exc
    if not isinstance(record, dict):
        raise CorpusError(f"{path.name} line {lineno}: record is not an object")
    try:
        json.dumps(record, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        raise CorpusError(f"{path.name} line {lineno}: record holds an unpaired surrogate") from None
    return record


def _outcome(parse, raw):
    try:
        # dumps tells 1 from 1.0 and True, keeps key order and prints NaN
        return "record", json.dumps(parse(raw, Path("x.jsonl"), 3))
    except Exception as exc:  # noqa: BLE001 (the error is the outcome)
        return type(exc).__name__, str(exc)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def _record_lines(draw):
    line = json.dumps(draw(_json_values), ensure_ascii=draw(st.booleans()))
    mangle = draw(st.sampled_from(["none", "object", "trailing", "twice", "bom", "truncate"]))
    if mangle == "object":
        line = json.dumps({"k": json.loads(line)})
    elif mangle == "trailing":
        line += draw(st.sampled_from([" x", "x", " ", "]", "}", ",1"]))
    elif mangle == "twice":
        line += line
    elif mangle == "bom":
        line = "\ufeff" + line
    elif mangle == "truncate":
        line = line[: draw(st.integers(0, max(0, len(line) - 1)))]
    return line


@settings(max_examples=400, deadline=None)
@given(_record_lines())
@example('{"a": 1} x')
@example("{}{}")
@example('\ufeff{"a": 1}')
@example('{"a": NaN, "b": -Infinity}')
@example("NaN")
@example("-Infinity")
@example('{"n": 1234567890123456789012345678901234567890}')
@example('{"s": "\\ud800"}')
@example('{"s": ["a\\uDC00"]}')
@example('{"\\uD83D": 1}')
@example('{"s": "\\ud83d\\ude00"}')
@example('{"s": "\\\\ud800"}')
@example('{"a": [1, 2')
@example('{"a": ')
@example("[1, 2]")
@example('"text"')
@example("3.5")
@example("")
@example(" {} ")
def test_parse_line_returns_or_raises_what_json_loads_does(raw):
    assert _outcome(_parse_line, raw) == _outcome(_reference_parse_line, raw)


def test_valid_lines_never_reach_json_loads(tmp_path, monkeypatch):
    files = _valid_files(tmp_path)

    def refuse(*args, **kwargs):
        raise AssertionError("json.loads called on a valid line")

    monkeypatch.setattr(json, "loads", refuse)
    patients = _checked_patients(*files[1:])
    assert patients["p1"].admit_date.isoformat() == "2015-01-02"
    assert [doc.doc_id for doc in iter_documents(files[0], patients)] == ["d1"]
