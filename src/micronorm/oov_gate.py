"""Binary OOV/IV sentence gate: TF-IDF features plus two classifiers.

The gate decides whether a sentence needs phonetic normalization at
all, which keeps the expensive matching path off clean text.  Features
are L2-normalized TF-IDF vectors; the classifiers are a Multinomial
Naive Bayes consuming TF-IDF mass as fractional counts, and a logistic
regression trained by seeded stochastic gradient descent.
"""

from __future__ import annotations

import json
import math
import random
import re
import unicodedata
from dataclasses import dataclass, field

from .errors import GateError

IV = "IV"
OOV = "OOV"
LABELS = (IV, OOV)

_TOKEN_RE = re.compile(r"[a-z0-9]+(?:'[a-z0-9]+)*")


def _sigmoid(margin: float) -> float:
    margin = max(-35.0, min(35.0, margin))
    return 1.0 / (1.0 + math.exp(-margin))


def _fold(text: str) -> str:
    """``text`` in NFKD with its combining marks dropped: "café" gives "cafe"
    and the full-width "ｇｒ８" gives "gr8"."""
    return "".join(c for c in unicodedata.normalize("NFKD", text) if not unicodedata.combining(c))


def tokenize(text: str) -> list[str]:
    """Lowercase tokens; punctuation dropped, digits and inner apostrophes kept.

    Text that is not ASCII is folded first (see ``_fold``), so accented and
    full-width letters keep their tokens whole.
    """
    return _TOKEN_RE.findall((text if text.isascii() else _fold(text)).lower())


# ------------------------------------------------------------------ corpus


def load_labeled_corpus(path) -> list[tuple[str, str]]:
    """Read a text<TAB>label TSV with labels IV or OOV."""
    records: list[tuple[str, str]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            cols = line.split("\t")
            if len(cols) != 2 or cols[1] not in LABELS:
                raise GateError(f"{path}:{lineno}: expected text<TAB>IV|OOV")
            records.append((cols[0], cols[1]))
    if not records:
        raise GateError(f"{path}: empty corpus")
    return records


def load_parallel_corpus(path) -> list[tuple[str, str]]:
    """Read a raw<TAB>normalized TSV; each line becomes an OOV and an IV record."""
    records: list[tuple[str, str]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            cols = line.split("\t")
            if len(cols) != 2:
                raise GateError(f"{path}:{lineno}: expected raw<TAB>normalized")
            records.append((cols[0], OOV))
            records.append((cols[1], IV))
    if not records:
        raise GateError(f"{path}: empty corpus")
    return records


def train_test_split(
    records: list[tuple[str, str]], test_frac: float = 0.2, seed: int = 42
) -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    if not 0.0 <= test_frac <= 1.0:  # also refuses nan
        raise GateError(f"test_frac must be in [0, 1], got {test_frac}")
    shuffled = list(records)
    random.Random(seed).shuffle(shuffled)
    n_test = int(round(len(shuffled) * test_frac))
    return shuffled[n_test:], shuffled[:n_test]


# ------------------------------------------------------------------ features


@dataclass
class TfIdfVectorizer:
    vocabulary: dict[str, int] = field(default_factory=dict)
    doc_freq: list[int] = field(default_factory=list)
    num_docs: int = 0
    # idf of every feature, computed once from doc_freq and num_docs
    idf_table: list[float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.num_docs
        self.idf_table = [math.log((1 + n) / (1 + df)) + 1.0 for df in self.doc_freq]

    def _weigh(self, text: str | list[str]) -> tuple[dict[int, int], list[float], float]:
        """Feature counts of a text or its tokens in first-seen order, their raw
        TF-IDF weights, and the L2 norm to divide them by: 1.0 where it is not
        positive, which leaves them as they are."""
        vocabulary = self.vocabulary
        counts: dict[int, int] = {}
        for tok in tokenize(text) if isinstance(text, str) else text:
            j = vocabulary.get(tok)
            if j is not None:
                counts[j] = counts.get(j, 0) + 1
        idf = self.idf_table
        weights = [c * idf[j] for j, c in counts.items()]
        norm = math.sqrt(sum([w * w for w in weights]))
        return counts, weights, norm if norm > 0 else 1.0

    def transform(self, text: str | list[str]) -> dict[int, float]:
        """Sparse L2-normalized TF-IDF vector of a text or its tokens; unseen tokens are ignored."""
        features, weights, norm = self._weigh(text)
        return {j: w / norm for j, w in zip(features, weights)}


def fit_tfidf(texts: list[str]) -> TfIdfVectorizer:
    if not texts:
        raise GateError("cannot fit a vectorizer on an empty corpus")
    vocab: dict[str, int] = {}
    doc_freq: list[int] = []
    for text in texts:
        for tok in sorted(set(tokenize(text))):
            j = vocab.get(tok)
            if j is None:
                vocab[tok] = len(doc_freq)
                doc_freq.append(1)
            else:
                doc_freq[j] += 1
    return TfIdfVectorizer(vocabulary=vocab, doc_freq=doc_freq, num_docs=len(texts))


# ------------------------------------------------------------------ models

NB_KIND = "MultinomialNB"
LR_KIND = "LogisticSGD"
# training hyperparameters, recorded in each model's ``hyperparams``
NB_ALPHA = 1.0  # additive smoothing
LR_LEARNING_RATE = 0.1
LR_EPOCHS = 20


@dataclass
class GateModel:
    kind: str
    vectorizer: TfIdfVectorizer
    seed: int
    hyperparams: dict[str, float]
    # NB: per-class log prior and per-feature log likelihood
    log_prior: dict[str, float] = field(default_factory=dict)
    log_likelihood: dict[str, list[float]] = field(default_factory=dict)
    # LR: weights and bias; positive margin means OOV
    weights: list[float] = field(default_factory=list)
    bias: float = 0.0

    def score(self, text: str | list[str]) -> float:
        """P(OOV | text); ``text`` may also be its ``tokenize`` output."""
        features, weights, norm = self.vectorizer._weigh(text)
        # each term is that of ``transform``'s vector times a parameter,
        # (w / norm) * param[j], summed in the same order, so the score is
        # bit-identical to one computed from that vector
        if self.kind == NB_KIND:
            ll_iv, ll_oov = self.log_likelihood[IV], self.log_likelihood[OOV]
            iv = self.log_prior[IV] + sum([w / norm * ll_iv[j] for j, w in zip(features, weights)])
            oov = self.log_prior[OOV] + sum([w / norm * ll_oov[j] for j, w in zip(features, weights)])
            m = max(iv, oov)
            exp_iv, exp_oov = math.exp(iv - m), math.exp(oov - m)
            return exp_oov / (exp_iv + exp_oov)
        lr = self.weights
        return _sigmoid(self.bias + sum([w / norm * lr[j] for j, w in zip(features, weights)]))

    def predict(self, text: str | list[str]) -> tuple[str, float]:
        score = self.score(text)
        return (OOV if score >= 0.5 else IV), score


def _train_nb(records, vectorizer: TfIdfVectorizer) -> tuple[dict, dict]:
    nvoc = len(vectorizer.vocabulary)
    counts = {label: 0 for label in LABELS}
    mass = {label: [0.0] * nvoc for label in LABELS}
    for text, label in records:
        counts[label] += 1
        for j, w in vectorizer.transform(text).items():
            mass[label][j] += w
    total = sum(counts.values())
    log_prior = {label: math.log(counts[label] / total) for label in LABELS}
    log_likelihood = {}
    for label in LABELS:
        denom = sum(mass[label]) + NB_ALPHA * nvoc
        log_likelihood[label] = [math.log((m + NB_ALPHA) / denom) for m in mass[label]]
    return log_prior, log_likelihood


def _train_lr(records, vectorizer: TfIdfVectorizer, seed: int):
    nvoc = len(vectorizer.vocabulary)
    weights = [0.0] * nvoc
    bias = 0.0
    vectors = [(vectorizer.transform(text), 1.0 if label == OOV else 0.0) for text, label in records]
    rng = random.Random(seed)
    order = list(range(len(vectors)))
    lr = LR_LEARNING_RATE
    for _ in range(LR_EPOCHS):
        rng.shuffle(order)
        for i in order:
            vec, y = vectors[i]
            margin = bias + sum(w * weights[j] for j, w in vec.items())
            p = _sigmoid(margin)
            g = p - y
            bias -= lr * g
            for j, w in vec.items():
                weights[j] -= lr * g * w
    return weights, bias


def train(records: list[tuple[str, str]], kind: str = LR_KIND, seed: int = 42) -> GateModel:
    """Train a gate model; deterministic for a fixed seed."""
    present = {label for _, label in records}
    if set(LABELS) - present:
        raise GateError(f"training corpus must contain both labels, got {sorted(present)}")
    vectorizer = fit_tfidf([text for text, _ in records])
    if kind == NB_KIND:
        log_prior, log_likelihood = _train_nb(records, vectorizer)
        return GateModel(
            kind=kind,
            vectorizer=vectorizer,
            seed=seed,
            hyperparams={"alpha": NB_ALPHA},
            log_prior=log_prior,
            log_likelihood=log_likelihood,
        )
    if kind == LR_KIND:
        weights, bias = _train_lr(records, vectorizer, seed)
        return GateModel(
            kind=kind,
            vectorizer=vectorizer,
            seed=seed,
            hyperparams={"learning_rate": LR_LEARNING_RATE, "epochs": LR_EPOCHS},
            weights=weights,
            bias=bias,
        )
    raise GateError(f"unknown classifier kind {kind!r}")


# ------------------------------------------------------------------ evaluation


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    precision: dict[str, float]
    recall: dict[str, float]
    f1: dict[str, float]
    confusion: dict[str, dict[str, int]]


def evaluate(model: GateModel, records: list[tuple[str, str]]) -> EvalReport:
    confusion = {gold: {pred: 0 for pred in LABELS} for gold in LABELS}
    for text, gold in records:
        if gold not in LABELS:
            raise GateError(f"unknown gold label {gold!r}")
        pred, _ = model.predict(text)
        confusion[gold][pred] += 1
    precision, recall, f1 = {}, {}, {}
    correct = sum(confusion[label][label] for label in LABELS)
    total = sum(sum(row.values()) for row in confusion.values())
    for label in LABELS:
        tp = confusion[label][label]
        fp = sum(confusion[other][label] for other in LABELS if other != label)
        fn = sum(confusion[label][other] for other in LABELS if other != label)
        precision[label] = tp / (tp + fp) if tp + fp else 0.0
        recall[label] = tp / (tp + fn) if tp + fn else 0.0
        denom = precision[label] + recall[label]
        f1[label] = 2 * precision[label] * recall[label] / denom if denom else 0.0
    return EvalReport(
        accuracy=correct / total if total else 0.0,
        precision=precision,
        recall=recall,
        f1=f1,
        confusion=confusion,
    )


# ------------------------------------------------------------------ persistence


def save_model(model: GateModel, path) -> None:
    payload = {
        "kind": model.kind,
        "seed": model.seed,
        "hyperparams": model.hyperparams,
        "vectorizer": {
            "vocabulary": model.vectorizer.vocabulary,
            "doc_freq": model.vectorizer.doc_freq,
            "num_docs": model.vectorizer.num_docs,
        },
        "log_prior": model.log_prior,
        "log_likelihood": model.log_likelihood,
        "weights": model.weights,
        "bias": model.bias,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False)


def load_model(path) -> GateModel:
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise GateError(f"{path}: not a JSON model file ({exc})") from None
    if not isinstance(payload, dict):
        raise GateError(f"{path}: a model file holds a JSON object, not {type(payload).__name__}")
    try:
        vec = TfIdfVectorizer(
            vocabulary=payload["vectorizer"]["vocabulary"],
            doc_freq=payload["vectorizer"]["doc_freq"],
            num_docs=payload["vectorizer"]["num_docs"],
        )
        model = GateModel(
            kind=payload["kind"],
            vectorizer=vec,
            seed=payload["seed"],
            hyperparams=payload["hyperparams"],
            log_prior=payload.get("log_prior", {}),
            log_likelihood=payload.get("log_likelihood", {}),
            weights=payload.get("weights", []),
            bias=payload.get("bias", 0.0),
        )
        features = sorted(vec.vocabulary.values())
        if model.kind == NB_KIND:
            if any(label not in model.log_prior for label in LABELS):
                raise GateError(f"{path}: log_prior must hold {IV} and {OOV}")
            vectors = [model.log_likelihood[label] for label in LABELS]
        elif model.kind == LR_KIND:
            vectors = [model.weights]
        else:
            raise GateError(f"{path}: unknown classifier kind {model.kind!r}")
    except KeyError as exc:
        raise GateError(f"{path}: malformed model file (missing {exc})") from None
    except (ArithmeticError, AttributeError, TypeError, ValueError) as exc:
        raise GateError(f"{path}: malformed model file ({exc})") from None
    # every feature indexes doc_freq and each parameter vector
    n = len(features)
    if features != list(range(n)) or any(
        not isinstance(v, list) or len(v) != n for v in [vec.doc_freq, *vectors]
    ):
        raise GateError(f"{path}: parameter vectors do not match the vocabulary of {n} features")
    return model
