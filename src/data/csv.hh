/**
 * @file
 * CSV persistence for datasets so collected sample sets are replayable
 * without re-running the simulator.
 *
 * Format: a header row `x:<name>,...,y:<name>,...` followed by one data
 * row per sample. The `x:`/`y:` prefixes encode which columns are
 * configuration parameters and which are performance indicators.
 */

#ifndef WCNN_DATA_CSV_HH
#define WCNN_DATA_CSV_HH

#include <iosfwd>
#include <string>

#include "core/error.hh"
#include "data/dataset.hh"

namespace wcnn {
namespace data {

/**
 * Error thrown on malformed CSV input or I/O failure. Kind "io.csv".
 *
 * Malformed external input is a fault, not a bug: every parse failure
 * (ragged row, non-numeric cell, non-finite value, bad header) raises
 * this typed error — never a contract violation, which the contract
 * layer reserves for in-process invariant breaks.
 */
class CsvError : public IoError
{
  public:
    /** @param message Description of the parse or I/O fault. */
    explicit CsvError(const std::string &message)
        : IoError("io.csv", message)
    {
    }
};

/**
 * Serialize a dataset to a stream in the prefixed-header CSV format.
 *
 * @param ds Dataset to write.
 * @param os Destination stream.
 */
void writeCsv(const Dataset &ds, std::ostream &os);

/**
 * Serialize a dataset to a file. The text is formatted in memory
 * first, so a refused write leaves an existing file at @p path
 * unchanged.
 *
 * @param ds   Dataset to write.
 * @param path Destination file path.
 * @throws CsvError if the write is refused or the file cannot be
 *         opened.
 */
void saveCsv(const Dataset &ds, const std::string &path);

/**
 * Content digest of a dataset: FNV-1a 64 over its serialized CSV
 * text, as 16 lowercase hex digits. Because the CSV writer prints
 * round-trip-exact values, equal digests mean bit-identical datasets
 * — the golden scenario suite pins these across thread counts.
 *
 * @param ds Dataset to digest.
 */
std::string csvDigest(const Dataset &ds);

/**
 * Parse a dataset from a stream.
 *
 * @param is Source stream positioned at the header row.
 * @throws CsvError on malformed headers or rows.
 */
Dataset readCsv(std::istream &is);

/**
 * Parse a dataset from a file.
 *
 * @param path Source file path.
 * @throws CsvError if the file cannot be opened or parsed.
 */
Dataset loadCsv(const std::string &path);

} // namespace data
} // namespace wcnn

#endif // WCNN_DATA_CSV_HH
