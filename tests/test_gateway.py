import json
import os
import re
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import veridebate
from conftest import CountingBackend
from veridebate import gateway as gateway_module
from veridebate.gateway import (
    Gateway,
    GenerationRequest,
    GenerationSettings,
    MalformedResponseError,
    MockBackend,
    RateLimiter,
    RateLimitError,
    RemoteBackend,
    RetryPolicy,
    TransportError,
    cache_key,
    words,
)
from veridebate.packs import PackStore


def req(text="hello there", seed=0, temperature=0.7):
    return GenerationRequest(
        messages=(("system", "be brief"), ("user", text)),
        settings=GenerationSettings(temperature=temperature, seed=seed),
    )


class TestRequests:
    def test_empty_message_list_rejected(self):
        with pytest.raises(ValueError):
            GenerationRequest(messages=())

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            GenerationRequest(messages=(("user", ""),))

    def test_unknown_speaker_kind_rejected(self):
        with pytest.raises(ValueError):
            GenerationRequest(messages=(("assistant", "hi"),))

    @pytest.mark.parametrize("temperature", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_temperature_rejected(self, temperature):
        """canonical_request would write such a value as NaN or Infinity,
        which is not JSON."""
        with pytest.raises(ValueError, match="temperature must be finite"):
            GenerationSettings(temperature=temperature)


class TestCacheKey:
    def test_stable_within_process(self):
        assert cache_key(req()) == cache_key(req())

    def test_fixed_length_hex(self):
        digest = cache_key(req())
        assert len(digest) == 64
        int(digest, 16)

    def test_temperature_changes_key(self):
        assert cache_key(req(temperature=0.1)) != cache_key(req(temperature=0.2))

    def test_message_order_changes_key(self):
        a = GenerationRequest(messages=(("user", "x"), ("user", "y")))
        b = GenerationRequest(messages=(("user", "y"), ("user", "x")))
        assert cache_key(a) != cache_key(b)

    @given(st.text(min_size=1), st.integers(min_value=0, max_value=2**31))
    def test_pure_function_of_request(self, text, seed):
        assert cache_key(req(text=text, seed=seed)) == cache_key(req(text=text, seed=seed))


class TestMockBackend:
    def test_referentially_transparent(self):
        backend = MockBackend()
        assert backend.complete(req()) == backend.complete(req())

    def test_seed_changes_output(self):
        backend = MockBackend()
        assert backend.complete(req(seed=1)) != backend.complete(req(seed=2))

    def test_gateway_mock_identical_responses(self, tmp_path):
        gateway = Gateway(MockBackend(), tmp_path)
        first = gateway.generate(req())
        second = gateway.generate(req())
        assert first.text == second.text
        assert first.backend_id == "mock"

    def test_output_respects_token_budget(self):
        settings = GenerationSettings(max_tokens=5)
        request = GenerationRequest(messages=(("user", "a long story please"),),
                                    settings=settings)
        text = MockBackend().complete(request)
        assert len(text.split(" ")) <= 5


# ASCII controls \x1c-\x1f are whitespace to str.split but not to the regex.
ASCII_TEXT = st.text(st.characters(max_codepoint=0x7F))
ANY_TEXT = st.text(st.characters(exclude_categories=()))


class TestWords:
    @given(st.one_of(ASCII_TEXT, ANY_TEXT))
    def test_equals_the_regex(self, text):
        assert words(text) == re.findall(r"[\w']+", text)

    @pytest.mark.parametrize("text", ["", "?!... -- ;;", "\x1c\x1d\x1e\x1f", "«»—", " \t\n"])
    def test_no_words(self, text):
        assert words(text) == []

    def test_ascii_and_unicode_word_characters(self):
        assert words("it's a_b\x1fc 9x\u212a naïve 渡轮-周一") == [
            "it's", "a_b", "c", "9x\u212a", "naïve", "渡轮", "周一"]


class TestCache:
    def test_second_call_is_cached(self, tmp_path):
        backend = CountingBackend()
        gateway = Gateway(backend, cache_dir=tmp_path)
        first = gateway.generate(req())
        second = gateway.generate(req())
        assert backend.calls == 1
        assert not first.cached and second.cached
        assert first.text == second.text

    def test_cache_layout_one_pack(self, tmp_path):
        gateway = Gateway(MockBackend(), cache_dir=tmp_path)
        response = gateway.generate(req())
        assert list(tmp_path.iterdir()) == [tmp_path / "mock"]
        assert [path.suffix for path in (tmp_path / "mock").iterdir()] == [".pack"]
        payload = PackStore(tmp_path / "mock").get(cache_key(req()))
        assert payload == response.text.encode("utf-8") and response.text

    @pytest.mark.parametrize("store, payload", [
        ("counting-mock", b""),
        ("counting-mock", b"\xff\xfe"),
        (".", json.dumps({"text": "old", "backend_id": "counting-mock"}).encode()),
    ], ids=["empty", "not_utf8", "old_layout"])
    def test_unusable_or_old_record_is_a_miss(self, tmp_path, store, payload):
        """An empty or non-UTF-8 record, or one in the older
        ``<cache_dir>/*.pack`` layout, sends the request again."""
        PackStore(tmp_path / store).put(cache_key(req()), payload)
        backend = CountingBackend()
        response = Gateway(backend, cache_dir=tmp_path).generate(req())
        assert backend.calls == 1 and not response.cached
        again = Gateway(backend, cache_dir=tmp_path).generate(req())
        assert (again.text, again.cached, backend.calls) == (response.text, True, 1)

    def test_replaced_backend_reads_its_own_store(self, tmp_path):
        """A backend set on a live gateway is asked, and caches into the
        store of its own id, not the old backend's."""
        gateway = Gateway(MockBackend(), cache_dir=tmp_path)
        gateway.generate(req())
        backend = CountingBackend()
        backend.backend_id = "remote:other-model"
        gateway.backend = backend
        response = gateway.generate(req())
        assert (response.cached, response.backend_id, backend.calls) == (
            False, "remote:other-model", 1)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mock", "remote_other-model"]

    def test_concurrent_identical_requests_single_call(self, tmp_path):
        backend = CountingBackend()
        gateway = Gateway(backend, cache_dir=tmp_path)
        threads = [threading.Thread(target=gateway.generate, args=(req(),)) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert backend.calls == 1

    def test_cold_request_serialized_once(self, tmp_path, monkeypatch):
        calls = []
        serialize = gateway_module.canonical_request
        monkeypatch.setattr(gateway_module, "canonical_request",
                            lambda request: calls.append(request) or serialize(request))
        response = Gateway(MockBackend(), cache_dir=tmp_path).generate(req())
        assert not response.cached
        assert len(calls) == 1

    def test_key_locks_freed_after_use(self, tmp_path):
        backend = CountingBackend()
        gateway = Gateway(backend, cache_dir=tmp_path)
        requests = [req(text=f"request {i}") for i in range(50)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(gateway.generate, requests))
        assert backend.calls == 50
        assert not any(lock.locked() for lock in gateway._locks)


class FlakyBackend:
    backend_id = "flaky"

    def __init__(self, fail_times, exc=TransportError):
        self.fail_times = fail_times
        self.exc = exc
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        if self.calls <= self.fail_times:
            raise self.exc("boom")
        return "recovered"


class TestRetry:
    def test_recovers_within_budget(self, tmp_path):
        sleeps = []
        gateway = Gateway(FlakyBackend(2), tmp_path,
                          retry=RetryPolicy(max_attempts=3, sleep=sleeps.append))
        assert gateway.generate(req()).text == "recovered"
        assert len(sleeps) == 2
        assert sleeps == sorted(sleeps)

    def test_attempts_bounded(self, tmp_path):
        backend = FlakyBackend(99)
        gateway = Gateway(backend, tmp_path,
                          retry=RetryPolicy(max_attempts=3, sleep=lambda s: None))
        with pytest.raises(TransportError):
            gateway.generate(req())
        assert backend.calls == 3

    def test_rate_limit_surfaced_after_budget(self, tmp_path):
        backend = FlakyBackend(99, exc=RateLimitError)
        gateway = Gateway(backend, tmp_path,
                          retry=RetryPolicy(max_attempts=2, sleep=lambda s: None))
        with pytest.raises(RateLimitError):
            gateway.generate(req())
        assert backend.calls == 2

    def test_delays_nondecreasing(self):
        policy = RetryPolicy(max_attempts=5, backoff_base=0.25, backoff_factor=2.0)
        delays = [policy.delay(k) for k in range(4)]
        assert delays == sorted(delays)


class TestRateLimiter:
    def test_paces_requests(self):
        now = [0.0]
        sleeps = []

        def clock():
            return now[0]

        def sleep(s):
            sleeps.append(s)
            now[0] += s

        limiter = RateLimiter(requests_per_minute=60, clock=clock, sleep=sleep)
        for _ in range(3):
            with limiter:
                pass
        # 60 rpm -> one-second spacing; first request is free.
        assert sleeps and all(abs(s - 1.0) < 1e-9 for s in sleeps)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            RateLimiter(requests_per_minute=0)


class TestRemoteBackend:
    def _transport(self, status=200, payload=None, capture=None):
        def transport(url, body, headers, timeout):
            if capture is not None:
                capture.update(url=url, body=json.loads(body), headers=headers)
            data = payload if payload is not None else {
                "choices": [{"message": {"content": "remote says hi"}}]
            }
            return status, json.dumps(data).encode()
        return transport

    def test_wire_format(self):
        seen = {}
        backend = RemoteBackend("https://api.example/v1", api_key="k123",
                                transport=self._transport(capture=seen))
        text = backend.complete(req("ping"))
        assert text == "remote says hi"
        assert seen["url"] == "https://api.example/v1/chat/completions"
        assert seen["headers"]["Authorization"] == "Bearer k123"
        assert seen["body"]["messages"][1] == {"role": "user", "content": "ping"}
        assert seen["body"]["temperature"] == 0.7

    def test_api_key_from_environment(self, monkeypatch):
        monkeypatch.setenv("VERIDEBATE_API_KEY", "env-key")
        backend = RemoteBackend("https://api.example", transport=self._transport())
        assert backend.api_key == "env-key"

    def test_429_raises_rate_limit(self):
        backend = RemoteBackend("https://api.example", api_key="k",
                                transport=self._transport(status=429))
        with pytest.raises(RateLimitError):
            backend.complete(req())

    def test_500_raises_transport(self):
        backend = RemoteBackend("https://api.example", api_key="k",
                                transport=self._transport(status=503))
        with pytest.raises(TransportError):
            backend.complete(req())

    def test_malformed_payload(self):
        backend = RemoteBackend("https://api.example", api_key="k",
                                transport=self._transport(payload={"nope": 1}))
        with pytest.raises(MalformedResponseError):
            backend.complete(req())

    def test_url_error_raises_transport_error(self):
        """The default transport, whose HTTP stack loads on first use, turns
        a URL error into a TransportError; no host means no connection."""
        with pytest.raises(TransportError, match="no host given"):
            gateway_module._urllib_transport("http:///x", b"{}", {}, 1.0)

    def test_cached_remote_roundtrip(self, tmp_path):
        calls = []

        def transport(url, body, headers, timeout):
            calls.append(url)
            return 200, json.dumps(
                {"choices": [{"message": {"content": "expensive answer"}}]}
            ).encode()

        backend = RemoteBackend("https://api.example", api_key="k", transport=transport)
        gateway = Gateway(backend, cache_dir=tmp_path)
        first = gateway.generate(req())
        second = gateway.generate(req())
        assert len(calls) == 1
        assert second.cached and second.text == first.text


@pytest.mark.parametrize("module", ["veridebate.pipeline", "veridebate.cli"])
def test_mock_runs_load_no_http_client(module):
    """A fresh interpreter that imports the pipeline or the CLI loads no
    HTTP client module: the stack loads on the first remote request."""
    http = ("urllib.request", "urllib.error", "http.client", "ssl", "email")
    code = f"import sys, {module}; print([m for m in {http!r} if m in sys.modules])"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(veridebate.__file__).parents[1]), env.get("PYTHONPATH", "")) if p)
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
