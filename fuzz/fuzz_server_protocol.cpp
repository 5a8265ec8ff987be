/// \file fuzz_server_protocol.cpp
/// \brief Fuzz harness for the cache-server frame decoder
///        (src/server/protocol.hpp).
///
/// The decoder's contract: arbitrary bytes never throw and never emit a
/// malformed frame — every sink callback carries a frame whose envelope
/// (magic/version/reserved, length within bounds) was validated, and the
/// first framing error poisons the stream permanently. On top of that the
/// harness checks the *reassembly invariant* the server depends on:
/// feeding the same stream byte-split in any way (the fuzzer picks the
/// chunking from the input) must emit the identical frame sequence with
/// the identical terminal error as feeding it in one piece — pipelined
/// frame boundaries cannot depend on how the kernel happened to chunk
/// reads. The body parsers (request, response, stats payload) are run on
/// every emitted frame and on the raw input, and must reject garbage with
/// nullopt, never an exception.
///
/// The decoder has two paths: frames wholly inside one feed are decoded in
/// place, and a frame split across feeds is completed in its buffer. The
/// one-piece run takes only the first; a chunking that splits frames
/// mid-header and mid-body (corpus seed split_mid_header_and_body.bin)
/// takes both, and must agree with it.
///
/// Build modes (see fuzz/CMakeLists.txt):
///  - -DCCC_FUZZ=ON under Clang: a real libFuzzer binary
///    (CCC_FUZZ_LIBFUZZER suppresses the standalone main).
///  - Every other build: a standalone corpus runner for the ctest corpus
///    replay and for reproducing crashes under gdb.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "server/protocol.hpp"

namespace {

struct Emitted {
  std::uint8_t code;
  std::vector<std::uint8_t> body;

  bool operator==(const Emitted&) const = default;
};

/// Feeds `stream` to a fresh decoder in chunks drawn from `chunker`
/// (cycling; 0 → 1 byte; an empty `chunker` feeds the stream in one
/// piece), recording every emitted frame and the final error state.
std::pair<std::vector<Emitted>, ccc::server::DecodeError> run_decoder(
    std::span<const std::uint8_t> stream,
    std::span<const std::uint8_t> chunker, std::size_t max_body) {
  ccc::server::FrameDecoder decoder(max_body);
  std::vector<Emitted> frames;
  const auto sink = [&](const ccc::server::FrameView& frame) {
    // Envelope guarantees the decoder must have enforced already.
    if (frame.body.size() > max_body) std::abort();
    frames.push_back(Emitted{
        frame.code,
        std::vector<std::uint8_t>(frame.body.begin(), frame.body.end())});
    // Body parsers must never throw, whatever the bytes.
    (void)ccc::server::parse_request(frame);
    (void)ccc::server::parse_response(frame);
  };
  std::size_t offset = 0;
  std::size_t which = 0;
  while (offset < stream.size()) {
    std::size_t chunk = stream.size();
    if (!chunker.empty()) {
      chunk = std::max<std::size_t>(1, chunker[which % chunker.size()]);
      ++which;
    }
    chunk = std::min(chunk, stream.size() - offset);
    const ccc::server::DecodeError err =
        decoder.feed(stream.subspan(offset, chunk), sink);
    if (err != ccc::server::DecodeError::kNone) {
      // Poisoning must be permanent and sink-free from here on.
      const ccc::server::DecodeError again = decoder.feed(
          stream.subspan(offset, 0),
          [](const ccc::server::FrameView&) { std::abort(); });
      if (again != err) std::abort();
      return {frames, err};
    }
    offset += chunk;
  }
  return {frames, decoder.error()};
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::uint8_t> input(data, size);
  // First byte selects the decoder's max-body config, next eight drive the
  // chunking pattern, the rest is the byte stream under test.
  if (input.size() < 9) return 0;
  const std::size_t max_body = input[0] % 2 == 0
                                   ? ccc::server::kRequestBodyBytes
                                   : std::size_t{4096};
  const auto chunker = input.subspan(1, 8);
  const auto stream = input.subspan(9);

  const auto whole =
      run_decoder(stream, std::span<const std::uint8_t>(), max_body);
  const auto chunked = run_decoder(stream, chunker, max_body);
  // Reassembly invariant: chunking cannot change what was decoded.
  if (whole.first != chunked.first) std::abort();
  if (whole.second != chunked.second) std::abort();

  // The stats-payload parser must reject or accept, never throw.
  (void)ccc::server::parse_stats_body(stream);
  return 0;
}

#ifndef CCC_FUZZ_LIBFUZZER

#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

namespace {

int replay_file(const std::filesystem::path& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    std::cerr << "fuzz_server_protocol: cannot read " << path << "\n";
    return 1;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  const std::string bytes = buffer.str();
  (void)LLVMFuzzerTestOneInput(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size());
  std::cout << "ok " << path.string() << " (" << bytes.size() << " bytes)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr
        << "usage: fuzz_server_protocol <corpus file or directory>...\n";
    return 2;
  }
  int rc = 0;
  for (int i = 1; i < argc; ++i) {
    const std::filesystem::path path(argv[i]);
    if (std::filesystem::is_directory(path)) {
      for (const auto& entry :
           std::filesystem::recursive_directory_iterator(path))
        if (entry.is_regular_file()) rc |= replay_file(entry.path());
    } else {
      rc |= replay_file(path);
    }
  }
  return rc;
}

#endif  // CCC_FUZZ_LIBFUZZER
