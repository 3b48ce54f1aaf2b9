#include "core/table_encoding.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace turl {
namespace core {

int EncodedTable::AppendEntity(int model_id, int role, int row, int column,
                               std::vector<int> mention_tokens,
                               kb::EntityId kb_id) {
  entity_ids.push_back(model_id);
  entity_role.push_back(role);
  entity_row.push_back(row);
  entity_column.push_back(column);
  entity_mentions.push_back(std::move(mention_tokens));
  entity_kb_ids.push_back(kb_id);
  return num_entities() - 1;
}

namespace {

std::vector<int> EncodeCapped(const text::WordPieceTokenizer& tokenizer,
                              const std::string& textual, int cap) {
  std::vector<int> ids = tokenizer.Encode(textual);
  if (static_cast<int>(ids.size()) > cap) ids.resize(static_cast<size_t>(cap));
  return ids;
}

}  // namespace

EncodedTable EncodeTable(const data::Table& table,
                         const text::WordPieceTokenizer& tokenizer,
                         const data::EntityVocab& entity_vocab,
                         const EncodeOptions& options) {
  TURL_TRACE_SCOPE("encode.table");
  static obs::Counter* tables_encoded =
      obs::MetricsRegistry::Get().GetCounter("encode.tables");
  tables_encoded->Inc();
  EncodedTable out;

  if (options.include_metadata) {
    // Caption tokens.
    std::vector<int> cap_ids =
        EncodeCapped(tokenizer, table.caption, options.max_caption_tokens);
    for (size_t i = 0; i < cap_ids.size(); ++i) {
      out.token_ids.push_back(cap_ids[i]);
      out.token_segment.push_back(kSegmentCaption);
      out.token_position.push_back(static_cast<int>(i));
      out.token_column.push_back(-1);
    }
    // Header tokens, column by column; each header restarts positions.
    for (int c = 0; c < table.num_columns(); ++c) {
      std::vector<int> h_ids = EncodeCapped(
          tokenizer, table.columns[size_t(c)].header, options.max_header_tokens);
      for (size_t i = 0; i < h_ids.size(); ++i) {
        out.token_ids.push_back(h_ids[i]);
        out.token_segment.push_back(kSegmentHeader);
        out.token_position.push_back(static_cast<int>(i));
        out.token_column.push_back(c);
      }
    }
  }

  if (options.include_entities) {
    if (options.include_topic_entity &&
        table.topic_entity != kb::kInvalidEntity) {
      out.AppendEntity(
          entity_vocab.Id(table.topic_entity), kRoleTopic, -1, -1,
          EncodeCapped(tokenizer, table.topic_mention,
                       options.max_mention_tokens),
          table.topic_entity);
    }
    const int rows = std::min(table.num_rows(), options.max_rows);
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < table.num_columns(); ++c) {
        const data::Column& col = table.columns[size_t(c)];
        if (!col.is_entity_column) continue;
        const data::EntityCell& cell = col.cells[size_t(r)];
        const int role = (c == 0) ? kRoleSubject : kRoleObject;
        const int model_id = cell.linked()
                                 ? entity_vocab.Id(cell.entity)
                                 : data::EntityVocab::kUnkEntity;
        out.AppendEntity(model_id, role, r, c,
                         EncodeCapped(tokenizer, cell.mention,
                                      options.max_mention_tokens),
                         cell.entity);
      }
    }
  }

  return out;
}

}  // namespace core
}  // namespace turl
