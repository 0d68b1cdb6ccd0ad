#include "sim/codebook_io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/error.h"
#include "common/json.h"
#include "common/json_parse.h"
#include "sim/codebook_cache.h"

namespace nb {

namespace {

constexpr const char* codebook_schema = "nb-codebook/v1";

/// FNV-1a 64 with explicit chaining state — the payload is checksummed as
/// two spans (offsets, then entries) without concatenating them. Same
/// polynomial as ArtifactStore::checksum; duplicated because sim/ must not
/// depend on serve/.
std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
        h ^= bytes[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}
constexpr std::uint64_t fnv1a_seed = 0xcbf29ce484222325ULL;

/// fsync the directory so a just-completed rename is durable (best-effort,
/// mirroring the ArtifactStore).
void fsync_parent_directory(const std::string& path) {
    const std::size_t slash = path.rfind('/');
    const std::string directory = slash == std::string::npos ? "." : path.substr(0, slash);
    const int fd = ::open(directory.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
    }
}

/// Deletes `path` on scope exit unless disarmed — keeps an I/O exception
/// from leaking a durable-but-unpublished temp into the directory.
class UnlinkGuard {
public:
    explicit UnlinkGuard(std::string path) : path_(std::move(path)) {}
    ~UnlinkGuard() {
        if (armed_) {
            ::unlink(path_.c_str());
        }
    }
    void disarm() noexcept { armed_ = false; }

private:
    std::string path_;
    bool armed_ = true;
};

bool fail(std::string* error, const std::string& reason) {
    if (error != nullptr) {
        *error = reason;
    }
    return false;
}

}  // namespace

CodebookFile::~CodebookFile() {
    if (base_ != nullptr) {
        ::munmap(base_, size_);
    }
}

std::shared_ptr<const CodebookFile> CodebookFile::map(const std::string& path,
                                                      std::string* error) {
    const auto reject = [&](const std::string& reason) -> std::shared_ptr<const CodebookFile> {
        fail(error, "nb-codebook: '" + path + "': " + reason);
        return nullptr;
    };

    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        return reject(std::strerror(errno));
    }
    struct stat st{};
    if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
        ::close(fd);
        return reject("cannot stat or empty");
    }
    const auto size = static_cast<std::size_t>(st.st_size);
    void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);  // the mapping keeps its own reference
    if (base == MAP_FAILED) {
        return reject("mmap failed");
    }
    // Owns the mapping from here on: any rejection path munmaps via ~CodebookFile.
    std::shared_ptr<CodebookFile> file(new CodebookFile());
    file->base_ = base;
    file->size_ = size;

    const char* text = static_cast<const char*>(base);
    const std::size_t scan = std::min<std::size_t>(size, 4096);
    const void* newline_ptr = std::memchr(text, '\n', scan);
    if (newline_ptr == nullptr) {
        return reject("no header line (torn or foreign file)");
    }
    const auto header_len =
        static_cast<std::size_t>(static_cast<const char*>(newline_ptr) - text) + 1;
    if (header_len % 8 != 0) {
        return reject("header not padded to 8 bytes");
    }

    Header& h = file->header_;
    std::uint64_t rows = 0;
    std::uint64_t entry_count = 0;
    std::uint64_t checksum = 0;
    try {
        const JsonValue header = JsonValue::parse(std::string_view(text, header_len - 1));
        const auto u64 = [&header](const char* key) {
            const JsonValue* field = header.find(key);
            require(field != nullptr, std::string("nb-codebook: header missing '") + key + "'");
            return field->as_uint64();
        };
        const JsonValue* schema = header.find("schema");
        if (schema == nullptr || schema->as_string() != codebook_schema) {
            return reject("schema mismatch");
        }
        h.node_count = u64("node_count");
        h.max_degree = u64("max_degree");
        h.graph_digest = u64("graph_digest");
        h.graph_digest2 = u64("graph_digest2");
        h.shard_digest = u64("shard_digest");
        h.message_bits = u64("message_bits");
        h.c_eps = u64("c_eps");
        h.code_seed = u64("code_seed");
        h.transport_seed = u64("transport_seed");
        h.decoy_count = u64("decoy_count");
        h.bitslice_min_candidates = u64("bitslice_min_candidates");
        h.dictionary = static_cast<std::uint32_t>(u64("dictionary"));
        h.fingerprint = u64("fingerprint");
        rows = u64("rows");
        entry_count = u64("entry_count");
        checksum = u64("checksum");
    } catch (const precondition_error&) {
        return reject("unparseable header (torn or foreign file)");
    }

    // Exact-size check first: every truncation (and any trailing garbage)
    // fails here before the payload is touched. The range pre-checks keep a
    // hostile header's byte counts from wrapping the arithmetic.
    if (rows >= size / sizeof(std::uint64_t) || entry_count > size / sizeof(std::uint32_t)) {
        return reject("size mismatch (truncated or torn file)");
    }
    const std::uint64_t offsets_bytes = (rows + 1) * sizeof(std::uint64_t);
    const std::uint64_t entries_bytes = entry_count * sizeof(std::uint32_t);
    if (size != header_len + offsets_bytes + entries_bytes) {
        return reject("size mismatch (truncated or torn file)");
    }
    const char* payload = text + header_len;
    const std::uint64_t actual =
        fnv1a(fnv1a(fnv1a_seed, payload, offsets_bytes),
              payload + offsets_bytes, entries_bytes);
    if (actual != checksum) {
        return reject("checksum mismatch (corrupt file)");
    }

    // The payload starts 8-aligned (page-aligned base + padded header), so
    // these casts are aligned reads of the mapped bytes.
    file->offsets_ = {reinterpret_cast<const std::uint64_t*>(payload),
                      static_cast<std::size_t>(rows + 1)};
    file->entries_ = {reinterpret_cast<const std::uint32_t*>(payload + offsets_bytes),
                      static_cast<std::size_t>(entry_count)};

    // Structural sanity: downstream decoders index candidate arrays of size
    // node_count + 1 + decoy_count by these values, and Codebook slices rows
    // by the offsets, so both must be in range even for a checksum-valid
    // file written by a buggy builder.
    if (file->offsets_.front() != 0 || file->offsets_.back() != entry_count) {
        return reject("offset table endpoints out of range");
    }
    for (std::size_t r = 0; r < rows; ++r) {
        if (file->offsets_[r] > file->offsets_[r + 1]) {
            return reject("offset table not monotone");
        }
    }
    const std::uint64_t entry_limit = h.node_count + 1 + h.decoy_count;
    for (const std::uint32_t e : file->entries_) {
        if (e >= entry_limit) {
            return reject("entry id out of range");
        }
    }
    return file;
}

void save_codebook(const Codebook& codebook, const std::string& path) {
    const std::span<const std::uint64_t> offsets = codebook.candidate_offsets();
    const std::span<const std::uint32_t> entries = codebook.candidate_entry_data();
    const SimulationParams& params = codebook.params();
    const Graph& graph = codebook.graph();

    const std::uint64_t checksum =
        fnv1a(fnv1a(fnv1a_seed, offsets.data(), offsets.size_bytes()),
              entries.data(), entries.size_bytes());

    std::ostringstream header;
    JsonWriter json(header, /*indent=*/0);
    json.begin_object();
    json.kv("schema", codebook_schema);
    json.kv("node_count", static_cast<std::uint64_t>(graph.node_count()));
    json.kv("max_degree", static_cast<std::uint64_t>(graph.max_degree()));
    json.kv("graph_digest", CodebookCache::graph_digest(graph));
    json.kv("graph_digest2", CodebookCache::graph_digest2(graph));
    json.kv("shard_digest", std::uint64_t{0});  // retired field, kept for v1 compatibility
    json.kv("message_bits", static_cast<std::uint64_t>(params.message_bits));
    json.kv("c_eps", static_cast<std::uint64_t>(params.c_eps));
    json.kv("code_seed", params.code_seed);
    json.kv("transport_seed", params.transport_seed);
    json.kv("decoy_count", static_cast<std::uint64_t>(params.decoy_count));
    json.kv("bitslice_min_candidates",
            static_cast<std::uint64_t>(params.bitslice_min_candidates));
    json.kv("dictionary", static_cast<std::uint64_t>(params.dictionary));
    json.kv("fingerprint", codebook.fingerprint());
    json.kv("rows", static_cast<std::uint64_t>(codebook.candidate_row_count()));
    json.kv("entry_count", static_cast<std::uint64_t>(entries.size()));
    json.kv("checksum", checksum);
    json.end_object();
    std::string head = header.str();
    // Space-pad so the '\n' lands the binary payload on an 8-byte boundary.
    head.append((8 - (head.size() + 1) % 8) % 8, ' ');
    head.push_back('\n');

    const std::string temp_path = path + ".tmp";
    UnlinkGuard guard(temp_path);
    std::FILE* file = std::fopen(temp_path.c_str(), "wb");
    require(file != nullptr, "nb-codebook: cannot create '" + temp_path + "'");
    const bool written =
        std::fwrite(head.data(), 1, head.size(), file) == head.size() &&
        (offsets.empty() ||
         std::fwrite(offsets.data(), 1, offsets.size_bytes(), file) == offsets.size_bytes()) &&
        (entries.empty() ||
         std::fwrite(entries.data(), 1, entries.size_bytes(), file) == entries.size_bytes()) &&
        std::fflush(file) == 0 && ::fsync(::fileno(file)) == 0;
    std::fclose(file);
    require(written, "nb-codebook: write failed for '" + temp_path + "'");
    require(std::rename(temp_path.c_str(), path.c_str()) == 0,
            "nb-codebook: cannot publish '" + path + "'");
    guard.disarm();
    fsync_parent_directory(path);
}

}  // namespace nb
